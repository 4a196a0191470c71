module N = Normalize

type options = {
  k_pullup : int;
  require_shared_pred : bool;
  max_w_sets : int;
  max_combos : int;
  bushy : bool;
}

let default_options =
  { k_pullup = 2; require_shared_pred = true; max_w_sets = 24; max_combos = 128;
    bushy = false }

type pulled = {
  p_view : string;
  p_w : (string * string) list;
  p_entry : Dp.entry;
}

type report = {
  best : Dp.entry;
  chosen_w : (string * (string * string) list) list;
  pulled_plans : pulled list;
  minimal_sets : (string * string list) list;
  combos_tried : int;
}

let dedup_columns cols =
  List.fold_left
    (fun acc c -> if List.exists (Schema.column_equal c) acc then acc else acc @ [ c ])
    [] cols

(* All subsets of [pool] with at most [k] elements. *)
let rec bounded_subsets k = function
  | [] -> [ [] ]
  | x :: rest ->
    let without = bounded_subsets k rest in
    if k = 0 then without
    else without @ List.map (fun s -> x :: s) (bounded_subsets (k - 1) rest)

let optimize cat ~work_mem ~opts (nq : N.nquery) =
  let view_aliases = List.map (fun v -> v.N.n_alias) nq.N.views in
  let is_view_alias q = List.exists (String.equal q) view_aliases in
  let split_quals p =
    let quals = Expr.qualifiers p in
    List.partition is_view_alias quals
  in
  let all_preds = nq.N.preds @ List.concat_map (fun v -> v.N.n_preds) nq.N.views in
  let infos =
    List.map
      (fun v ->
        let vprime_aliases, moved = Grouping.minimal_invariant_set cat v in
        let vprime =
          List.filter
            (fun (a, _) -> List.exists (String.equal a) vprime_aliases)
            v.N.n_rels
        in
        (v, vprime, moved))
      nq.N.views
  in
  let bprime = nq.N.rels @ List.concat_map (fun (_, _, moved) -> moved) infos in

  (* Columns visible outside a phase-1 block: anything the rest of the query
     mentions.  Pulled W relations must export these through the group-by. *)
  let outward_cols_of preds_not_placed =
    List.concat_map Expr.pred_columns preds_not_placed
    @ List.concat_map (fun (e, _) -> Expr.columns e) nq.N.select
    @ nq.N.keys
    @ List.concat_map Aggregate.arg_columns nq.N.aggs
    @ List.concat_map Expr.pred_columns nq.N.having
  in

  (* ---- phase 1: optimize Phi(V', W) ---- *)
  let key w = List.sort compare (List.map fst w) in
  let pull_up v vprime w =
    let item_rels = vprime @ w in
    let item_aliases = List.map fst item_rels in
    let placeable p =
      let aggq, baseq = split_quals p in
      List.for_all (fun q -> List.exists (String.equal q) item_aliases) baseq
      && List.for_all (String.equal v.N.n_alias) aggq
    in
    let placed, not_placed = List.partition placeable all_preds in
    let joins, deferred =
      List.partition (fun p -> fst (split_quals p) = []) placed
    in
    (* Columns the deferred (Having) predicates mention must survive the
       group-by too: they are evaluated over its output. *)
    let outward =
      outward_cols_of not_placed @ List.concat_map Expr.pred_columns deferred
    in
    let w_keys =
      List.concat_map
        (fun (alias, table) ->
          let tbl = Catalog.table_exn cat table in
          let pk_cols =
            List.map
              (fun k ->
                let idx = Schema.find_exn tbl.Catalog.tschema k in
                Schema.column ~qual:alias k (Schema.get tbl.Catalog.tschema idx).Schema.cty)
              tbl.Catalog.primary_key
          in
          let needed =
            List.filter (fun (c : Schema.column) -> String.equal c.Schema.cqual alias) outward
          in
          pk_cols @ needed)
        w
    in
    let spec =
      {
        Grouping.gs_qual = v.N.n_alias;
        gs_keys = dedup_columns (v.N.n_keys @ w_keys);
        gs_aggs = v.N.n_aggs;
        gs_having = v.N.n_having @ deferred;
      }
    in
    if w <> [] then Search_stats.count_pullup ();
    let finals =
      Dp.optimize cat ~work_mem
        {
          Dp.items = List.map Baseline.base_item item_rels;
          preds = joins;
          group = Some spec;
          early_grouping = true;
          bushy = opts.bushy;
        }
    in
    let item =
      Dp.derived ~covers:(item_aliases @ [ v.N.n_alias ]) ~out_key:spec.Grouping.gs_keys finals
    in
    (List.hd finals, item, placed)
  in
  (* W = V - V' is the view itself, planned exactly as {!Baseline}'s greedy
     mode plans it: the combination choosing it for every view is the
     greedy plan's own search, so the paper's plan is never worse than
     greedy's. *)
  let phase1 (v, vprime, moved) w =
    if key w = key moved then begin
      let entry, item = Baseline.view_item cat ~work_mem ~early:true ~bushy:opts.bushy v in
      (entry, item, v.N.n_preds)
    end
    else pull_up v vprime w
  in

  (* ---- candidate W sets per view ---- *)
  let w_sets (v, vprime, moved) =
    let taken (a, _) =
      List.exists (fun (a', _) -> String.equal a a') (vprime @ moved)
    in
    let view_side_aliases = List.map fst v.N.n_rels in
    let connected_to current (alias, _) =
      List.exists
        (fun p ->
          let aggq, baseq = split_quals p in
          List.exists (String.equal alias) baseq
          && (List.exists (fun q -> List.exists (String.equal q) current)
                (List.filter (fun q -> not (String.equal q alias)) baseq)
              || List.exists (String.equal v.N.n_alias) aggq))
        all_preds
    in
    let pool =
      List.filter
        (fun ((_, table) as r) ->
          (not (taken r))
          && (Catalog.table_exn cat table).Catalog.primary_key <> []
          && ((not opts.require_shared_pred) || connected_to view_side_aliases r))
        bprime
    in
    let moved_subsets = bounded_subsets (List.length moved) moved in
    let pull_subsets = bounded_subsets opts.k_pullup pool in
    let candidates =
      List.concat_map
        (fun ms -> List.map (fun ps -> ms @ ps) pull_subsets)
        moved_subsets
    in
    (* The view itself, W = V - V', must always be present, and goes
       first. *)
    let seen = Hashtbl.create 16 in
    let uniq =
      List.filter
        (fun w ->
          let k = key w in
          if Hashtbl.mem seen k then false
          else begin
            Hashtbl.add seen k ();
            true
          end)
        (moved :: candidates)
    in
    List.filteri (fun i _ -> i < opts.max_w_sets) uniq
  in

  (* ---- phase 2: enumerate consistent W choices ---- *)
  let per_view =
    List.map
      (fun info ->
        let sets = w_sets info in
        let cache = Hashtbl.create 8 in
        let get w =
          let k = key w in
          match Hashtbl.find_opt cache k with
          | Some r -> r
          | None ->
            let r = phase1 info w in
            Hashtbl.add cache k r;
            r
        in
        (info, sets, get))
      infos
  in
  let pulled_plans =
    List.concat_map
      (fun ((v, _, _), sets, get) ->
        List.map
          (fun w ->
            let entry, _, _ = get w in
            { p_view = v.N.n_alias; p_w = w; p_entry = entry })
          sets)
      per_view
  in
  let rec combos acc_choices = function
    | [] -> [ List.rev acc_choices ]
    | (info, sets, get) :: rest ->
      List.concat_map
        (fun w ->
          let disjoint =
            List.for_all
              (fun (_, w', _) ->
                List.for_all
                  (fun (a, _) -> not (List.exists (fun (a', _) -> String.equal a a') w'))
                  w)
              acc_choices
          in
          if disjoint then combos ((info, w, get) :: acc_choices) rest else [])
        sets
  in
  let all_combos = List.filteri (fun i _ -> i < opts.max_combos) (combos [] per_view) in
  let eval_combo choices =
    let derived = List.map (fun (_, w, get) -> let _, item, _ = get w in item) choices in
    let consumed =
      List.concat_map (fun (_, w, get) -> let _, _, placed = get w in placed) choices
    in
    let taken_rels =
      List.concat_map (fun (_, w, _) -> List.map fst w) choices
    in
    let rest_rels =
      List.filter
        (fun (a, _) -> not (List.exists (String.equal a) taken_rels))
        bprime
    in
    let preds2 = List.filter (fun p -> not (List.memq p consumed)) all_preds in
    let entry =
      List.hd
        (Dp.optimize cat ~work_mem
           {
             Dp.items = derived @ List.map Baseline.base_item rest_rels;
             preds = preds2;
             group = (if nq.N.grouped then Some (Baseline.top_spec nq) else None);
             early_grouping = true;
             bushy = opts.bushy;
           })
    in
    (entry, List.map (fun ((v, _, _), w, _) -> (v.N.n_alias, w)) choices)
  in
  match all_combos with
  | [] -> invalid_arg "Paper_opt.optimize: no combination enumerable"
  | first :: rest ->
    let best0 = eval_combo first in
    let best =
      List.fold_left
        (fun ((be, _) as acc) combo ->
          let (e, _) as r = eval_combo combo in
          if e.Dp.est.Cost_model.cost < be.Dp.est.Cost_model.cost then r else acc)
        best0 rest
    in
    let entry, chosen = best in
    {
      best = entry;
      chosen_w = chosen;
      pulled_plans;
      minimal_sets = List.map (fun (v, vprime, _) -> (v.N.n_alias, List.map fst vprime)) infos;
      combos_tried = List.length all_combos;
    }
