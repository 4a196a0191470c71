module N = Normalize

let view_spec (v : N.nview) =
  {
    Grouping.gs_qual = v.N.n_alias;
    gs_keys = v.N.n_keys;
    gs_aggs = v.N.n_aggs;
    gs_having = v.N.n_having;
  }

let top_spec (nq : N.nquery) =
  {
    Grouping.gs_qual = "";
    gs_keys = nq.N.keys;
    gs_aggs = nq.N.aggs;
    gs_having = nq.N.having;
  }

let base_item (alias, table) =
  { Dp.covers = [ alias ]; access = Dp.A_base { alias; table } }

let view_item cat ~work_mem ~early ~bushy (v : N.nview) =
  let finals =
    Dp.optimize cat ~work_mem
      {
        Dp.items = List.map base_item v.N.n_rels;
        preds = v.N.n_preds;
        group = Some (view_spec v);
        early_grouping = early;
        bushy;
      }
  in
  let covers = List.map fst v.N.n_rels @ [ v.N.n_alias ] in
  (List.hd finals, Dp.derived ~covers ~out_key:v.N.n_keys finals)

let optimize cat ~work_mem ~mode ?(bushy = false) (nq : N.nquery) =
  let early = match mode with `Traditional -> false | `Greedy -> true in
  let items =
    List.map (fun v -> snd (view_item cat ~work_mem ~early ~bushy v)) nq.N.views
    @ List.map base_item nq.N.rels
  in
  List.hd
    (Dp.optimize cat ~work_mem
       {
         Dp.items;
         preds = nq.N.preds;
         group = (if nq.N.grouped then Some (top_spec nq) else None);
         early_grouping = early;
         bushy;
       })
