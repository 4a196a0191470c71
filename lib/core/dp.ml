type access =
  | A_base of { alias : string; table : string }
  | A_derived of { plans : Physical.t list; out_key : Schema.column list option }

type item = { covers : string list; access : access }

type input = {
  items : item list;
  preds : Expr.pred list;
  group : Grouping.group_spec option;
  early_grouping : bool;
  bushy : bool;
}

type gtag =
  | Ungrouped
  | Grouped_final
  | Grouped_partial of Grouping.coalesce

type entry = { plan : Physical.t; est : Cost_model.est; tag : gtag }

let tag_kind = function
  | Ungrouped -> 0
  | Grouped_final -> 1
  | Grouped_partial _ -> 2

let key_name (c : Schema.column) = (c.Schema.cqual, c.Schema.cname)

let rec is_prefix small big =
  match small, big with
  | [], _ -> true
  | _, [] -> false
  | (q, n) :: s, (q', n') :: b ->
    String.equal q q' && String.equal n n' && is_prefix s b

let take k l = List.filteri (fun i _ -> i < k) l

(* Entries kept per subset, and finals exported to the caller. *)
let max_entries = 8
let max_finals = 2

(* [a] makes [b] redundant in a subset's table: same grouping state, no
   larger cost or pages, and an order at least as useful.  Rows are not
   compared: the cost model estimates a join's rows differently per join
   method, so a row criterion would keep, and prefer, a method for an
   artifact of its estimate. *)
let dominates a b =
  tag_kind a.tag = tag_kind b.tag
  && a.est.Cost_model.cost <= b.est.Cost_model.cost
  && a.est.Cost_model.pages <= b.est.Cost_model.pages
  && is_prefix (Physical.sorted_on b.plan) (Physical.sorted_on a.plan)

(* Among a block's finals, which all have the same output, rows count too:
   the enclosing block's cost grows with them. *)
let dominates_final a b = dominates a b && a.est.Cost_model.rows <= b.est.Cost_model.rows

let cheaper a b =
  match Float.compare a.est.Cost_model.cost b.est.Cost_model.cost with
  | 0 -> Float.compare a.est.Cost_model.rows b.est.Cost_model.rows
  | c -> c

(* [es] (non-dominated, cheapest first) with [e] added, or [None] when an
   entry of [es] dominates [e]. *)
let admit dominates e es =
  if List.exists (fun e' -> dominates e' e) es then None
  else Some (List.sort cheaper (e :: List.filter (fun e' -> not (dominates e e')) es))

let hash_group (spec : Grouping.group_spec) ?(keys = spec.Grouping.gs_keys)
    ?(aggs = spec.Grouping.gs_aggs) ?(having = spec.Grouping.gs_having) input =
  Physical.Hash_group { input; agg_qual = spec.Grouping.gs_qual; keys; aggs; having }

let derived ~covers ~out_key finals =
  let plans = List.map (fun e -> e.plan) finals in
  { covers; access = A_derived { plans; out_key = Some out_key } }

(* ------------------------------------------------------------------ *)

let finish_partial (spec : Grouping.group_spec) (c : Grouping.coalesce) plan =
  let having_inline = c.Grouping.post = [] in
  let g1 =
    hash_group spec ~aggs:c.Grouping.combine_aggs
      ~having:(if having_inline then spec.Grouping.gs_having else [])
      plan
  in
  if having_inline then g1
  else begin
    (* Recombine (AVG) and restore the original output columns, then filter. *)
    let key_cols = List.map (fun k -> (Expr.Col k, k)) spec.Grouping.gs_keys in
    let agg_cols =
      List.map
        (fun (a : Aggregate.t) ->
          let out =
            Schema.column ~qual:spec.Grouping.gs_qual a.Aggregate.out_name
              (Aggregate.result_type a)
          in
          match
            List.find_opt
              (fun (_, name) -> String.equal name a.Aggregate.out_name)
              c.Grouping.post
          with
          | Some (e, _) -> (e, out)
          | None -> (Expr.Col out, out))
        spec.Grouping.gs_aggs
    in
    let projected = Physical.Project { input = g1; cols = key_cols @ agg_cols } in
    match spec.Grouping.gs_having with
    | [] -> projected
    | having -> Physical.Filter { input = projected; pred = having }
  end

(* ------------------------------------------------------------------ *)

let optimize cat ~work_mem input =
  let n = List.length input.items in
  if n = 0 then invalid_arg "Dp.optimize: no items";
  if n > 20 then invalid_arg "Dp.optimize: too many items";
  let items = Array.of_list input.items in
  let estimate p = Cost_model.estimate cat ~work_mem p in
  let full_mask = (1 lsl n) - 1 in
  (* alias -> item bit *)
  let alias_bit =
    let tbl = Hashtbl.create 16 in
    Array.iteri
      (fun i it -> List.iter (fun a -> Hashtbl.replace tbl a (1 lsl i)) it.covers)
      items;
    tbl
  in
  let needed_mask p =
    List.fold_left
      (fun acc q ->
        match Hashtbl.find_opt alias_bit q with
        | Some b -> acc lor b
        | None ->
          invalid_arg
            (Printf.sprintf "Dp.optimize: predicate references unknown alias %s" q))
      0 (Expr.qualifiers p)
  in
  let preds = List.map (fun p -> (p, needed_mask p)) input.preds in
  let covered_aliases mask =
    let acc = ref [] in
    Array.iteri (fun i it -> if mask land (1 lsl i) <> 0 then acc := it.covers @ !acc) items;
    !acc
  in
  let leaf_filters j =
    (* Constant predicates (no column references) are attached to item 0. *)
    List.filter_map
      (fun (p, m) -> if m = 1 lsl j || (m = 0 && j = 0) then Some p else None)
      preds
  in
  let applicable_preds_mask left_mask right_mask =
    List.filter_map
      (fun (p, m) ->
        if
          m land lnot (left_mask lor right_mask) = 0
          && m land lnot left_mask <> 0
          && m land lnot right_mask <> 0
        then Some p
        else None)
      preds
  in
  let applicable_preds mask j = applicable_preds_mask mask (1 lsl j) in
  let remaining_preds mask =
    List.filter_map
      (fun (p, m) -> if m land lnot mask <> 0 then Some p else None)
      preds
  in
  let remaining_items mask =
    let acc = ref [] in
    Array.iteri
      (fun i it ->
        if mask land (1 lsl i) = 0 then begin
          let key =
            match it.access with
            | A_base { alias; table } ->
              let tbl = Catalog.table_exn cat table in
              (match tbl.Catalog.primary_key with
               | [] -> None
               | pk ->
                 Some
                   (List.map
                      (fun k ->
                        let idx = Schema.find_exn tbl.Catalog.tschema k in
                        let col = Schema.get tbl.Catalog.tschema idx in
                        Schema.column ~qual:alias k col.Schema.cty)
                      pk))
            | A_derived d -> d.out_key
          in
          acc := { Grouping.li_aliases = it.covers; li_key = key } :: !acc
        end)
      items;
    !acc
  in

  (* ---- DP table ---- *)
  let table : (int, entry list) Hashtbl.t = Hashtbl.create 256 in
  let entries mask = Option.value ~default:[] (Hashtbl.find_opt table mask) in
  let add_entry mask e =
    match admit dominates e (entries mask) with
    | None -> ()
    | Some es ->
      Search_stats.count_entry ();
      Hashtbl.replace table mask (take max_entries es)
  in

  (* ---- single-item access paths ---- *)
  let extract_bounds alias colname filters =
    (* Fold constant comparisons on (alias, colname) into range bounds.
       A predicate may be dropped from the residual filter only when it is
       the sole contributor to its bound side: with several contributors
       only the tightest value survives as the bound, so dropping the rest
       would lose their constraint — and would make the service layer's
       value-directed re-binding unsound, since under new parameters the
       tightest bound may come from a predicate that is no longer visible.
       Multi-contributor sides keep all their predicates in the residual;
       the bound then only over-approximates and the filter stays exact. *)
    let lo_preds = ref [] and hi_preds = ref [] in
    let lo = ref None and hi = ref None in
    let tighten_lo (v, incl) =
      match !lo with
      | None -> lo := Some (v, incl)
      | Some (v', _) -> if Value.compare v v' > 0 then lo := Some (v, incl)
    in
    let tighten_hi (v, incl) =
      match !hi with
      | None -> hi := Some (v, incl)
      | Some (v', _) -> if Value.compare v v' < 0 then hi := Some (v, incl)
    in
    List.iter
      (fun p ->
        match p with
        | Expr.Cmp (op, Expr.Col c, Expr.Const v)
          when String.equal c.Schema.cqual alias && String.equal c.Schema.cname colname
          -> (
          match op with
          | Expr.Eq ->
            tighten_lo (v, true);
            tighten_hi (v, true);
            lo_preds := p :: !lo_preds;
            hi_preds := p :: !hi_preds
          | Expr.Lt ->
            tighten_hi (v, false);
            hi_preds := p :: !hi_preds
          | Expr.Le ->
            tighten_hi (v, true);
            hi_preds := p :: !hi_preds
          | Expr.Gt ->
            tighten_lo (v, false);
            lo_preds := p :: !lo_preds
          | Expr.Ge ->
            tighten_lo (v, true);
            lo_preds := p :: !lo_preds
          | Expr.Ne -> ())
        | _ -> ())
      filters;
    let multi = function _ :: _ :: _ -> true | _ -> false in
    let residual_bound p =
      (multi !lo_preds && List.memq p !lo_preds)
      || (multi !hi_preds && List.memq p !hi_preds)
    in
    let consumed =
      List.filter
        (fun p -> not (residual_bound p))
        (List.filter (fun p -> List.memq p !lo_preds || List.memq p !hi_preds)
           filters)
    in
    (!lo, !hi, consumed)
  in
  let base_access_plans alias table filters =
    let tbl = Catalog.table_exn cat table in
    let seq = Physical.Seq_scan { alias; table; filter = filters } in
    let index_plans =
      List.map
        (fun (colname, _) ->
          let lo, hi, consumed = extract_bounds alias colname filters in
          let residual = List.filter (fun p -> not (List.memq p consumed)) filters in
          Physical.Index_scan { alias; table; column = colname; lo; hi; filter = residual })
        tbl.Catalog.indexes
    in
    seq :: index_plans
  in
  (* Each item's access paths, as Ungrouped entries. *)
  let singles =
    Array.init n (fun j ->
        let filters = leaf_filters j in
        let plans =
          match items.(j).access with
          | A_base { alias; table } -> base_access_plans alias table filters
          | A_derived { plans; _ } ->
            if filters = [] then plans
            else List.map (fun input -> Physical.Filter { input; pred = filters }) plans
        in
        List.map (fun plan -> { plan; est = estimate plan; tag = Ungrouped }) plans)
  in

  (* ---- greedy conservative group-by placement ---- *)
  (* Each Ungrouped entry stays: its early-grouped variant is added beside
     it, so the table keeps every plan the search without early grouping
     keeps. *)
  let try_place_group mask =
    match input.group with
    | Some spec when input.early_grouping && mask <> full_mask ->
      let cov = covered_aliases mask in
      let rem_preds = remaining_preds mask in
      let final_ok =
        Grouping.invariant_final_ok ~spec ~covered_aliases:cov
          ~remaining_items:(remaining_items mask) ~remaining_preds:rem_preds
      in
      let partial =
        Grouping.coalesce_at ~spec ~covered_aliases:cov ~remaining_preds:rem_preds
      in
      let grouped tag plan =
        Search_stats.count_group_plan ();
        { plan; est = estimate plan; tag }
      in
      List.iter
        (fun e ->
          if e.tag = Ungrouped then begin
            let candidates =
              (match partial with
               | None -> []
               | Some c ->
                 [ grouped (Grouped_partial c)
                     (hash_group spec ~keys:c.Grouping.partial_keys
                        ~aggs:c.Grouping.partial_aggs ~having:[] e.plan) ])
              @ if final_ok then [ grouped Grouped_final (hash_group spec e.plan) ] else []
            in
            (* Conservative acceptance: strictly fewer rows, no wider, no
               more expensive — guarantees downstream cost can only drop. *)
            let acceptable g =
              g.est.Cost_model.cost <= e.est.Cost_model.cost
              && g.est.Cost_model.width <= e.est.Cost_model.width
              && g.est.Cost_model.rows < e.est.Cost_model.rows
            in
            match
              List.sort
                (fun a b -> Float.compare a.est.Cost_model.rows b.est.Cost_model.rows)
                (List.filter acceptable candidates)
            with
            | [] -> ()
            | best :: _ -> add_entry mask best
          end)
        (entries mask)
    | _ -> ()
  in

  (* ---- join candidate generation ---- *)
  let reconstruct_eq (a, b) = Expr.Cmp (Expr.Eq, Expr.Col a, Expr.Col b) in
  let rescannable plan =
    match plan with
    | Physical.Seq_scan _ | Physical.Index_scan _ -> plan
    | p -> Physical.Materialize { input = p }
  in
  (* [joins mask lmask rmask tag left right] adds to [mask] every join of
     [left] (covering [lmask]) with [right] (covering [rmask]), tagged
     [tag].  Index nested loops apply when [right] is a sequential scan,
     i.e. an access path of a base item. *)
  let joins mask lmask rmask =
    let app = applicable_preds_mask lmask rmask in
    let left_aliases = covered_aliases lmask and right_aliases = covered_aliases rmask in
    let in_aliases aliases (c : Schema.column) =
      List.exists (String.equal c.Schema.cqual) aliases
    in
    let equi, residual =
      List.fold_left
        (fun (eq, res) p ->
          match Expr.as_equijoin p with
          | Some (a, b)
            when in_aliases left_aliases a && in_aliases right_aliases b ->
            (eq @ [ (a, b) ], res)
          | Some (a, b)
            when in_aliases left_aliases b && in_aliases right_aliases a ->
            (eq @ [ (b, a) ], res)
          | _ -> (eq, res @ [ p ]))
        ([], []) app
    in
    let candidates left right =
      (* Block nested loops: always available. *)
      let bnl =
        Physical.Block_nl_join
          { left = left.plan; right = rescannable right.plan; cond = app }
      in
      if equi = [] then [ bnl ]
      else begin
        (* Hash join: build the smaller side. *)
        let build_side =
          if right.est.Cost_model.pages <= left.est.Cost_model.pages then `Right else `Left
        in
        let hash =
          Physical.Hash_join
            { left = left.plan; right = right.plan; keys = equi; cond = residual; build_side }
        in
        (* Sort-merge join: reuse existing orders where possible. *)
        let sorted plan keys =
          if is_prefix (List.map key_name keys) (Physical.sorted_on plan) then plan
          else Physical.Sort { input = plan; cols = keys; desc = [] }
        in
        let merge =
          Physical.Merge_join
            { left = sorted left.plan (List.map fst equi);
              right = sorted right.plan (List.map snd equi);
              keys = equi; cond = residual }
        in
        (* Index nested loops (generated once, for the sequential-scan
           access path, to avoid duplicates). *)
        let index_nl =
          match right.plan with
          | Physical.Seq_scan { alias; table; filter } ->
            let tbl = Catalog.table_exn cat table in
            List.concat
              (List.mapi
                 (fun i (lcol, rcol) ->
                   if
                     String.equal rcol.Schema.cqual alias
                     && Catalog.index_on tbl rcol.Schema.cname <> None
                   then
                     let others =
                       List.filteri (fun i' _ -> i' <> i) equi |> List.map reconstruct_eq
                     in
                     [ Physical.Index_nl_join
                         { left = left.plan; alias; table; column = rcol.Schema.cname;
                           outer_key = lcol; cond = residual @ others @ filter } ]
                   else [])
                 equi)
          | _ -> []
        in
        List.rev index_nl @ [ merge; hash; bnl ]
      end
    in
    fun tag left right ->
      List.iter
        (fun plan ->
          Search_stats.count_join_plan ();
          add_entry mask { plan; est = estimate plan; tag })
        (candidates left right)
  in

  (* ---- enumeration ---- *)
  for j = 0 to n - 1 do
    List.iter (add_entry (1 lsl j)) singles.(j);
    try_place_group (1 lsl j)
  done;
  for mask = 1 to full_mask do
    if mask land (mask - 1) <> 0 (* at least two items *) then begin
      (* Prefer connected extensions; fall back to cross joins. *)
      let candidates_j =
        List.filter
          (fun j ->
            mask land (1 lsl j) <> 0 && entries (mask lxor (1 lsl j)) <> [])
          (List.init n (fun i -> i))
      in
      let connected_j =
        List.filter
          (fun j -> applicable_preds (mask lxor (1 lsl j)) j <> [])
          candidates_j
      in
      let js = if connected_j <> [] then connected_j else candidates_j in
      List.iter
        (fun j ->
          let sub = mask lxor (1 lsl j) in
          let join = joins mask sub (1 lsl j) in
          List.iter (fun left -> List.iter (join left.tag left) singles.(j)) (entries sub))
        js;
      if input.bushy then begin
        (* Composite (bushy) inner sides: join two multi-item subplans.  The
           group-by spec may have been applied in at most one side. *)
        let rec subsets s =
          if s = 0 then ()
          else begin
            let comp = mask lxor s in
            if
              s land mask = s && comp <> 0
              && comp land (comp - 1) <> 0 (* right side has >= 2 items *)
              && applicable_preds_mask s comp <> []
            then begin
              let join = joins mask s comp in
              List.iter
                (fun left ->
                  List.iter
                    (fun right ->
                      match left.tag, right.tag with
                      | t, Ungrouped | Ungrouped, t -> join t left right
                      | _, _ -> ())
                    (entries comp))
                (entries s)
            end;
            subsets ((s - 1) land mask)
          end
        in
        subsets ((mask - 1) land mask)
      end;
      try_place_group mask
    end
  done;

  (* ---- finalize ---- *)
  let finalize e =
    match input.group with
    | None -> [ e ]
    | Some spec -> (
      match e.tag with
      | Grouped_final -> [ e ]
      | Grouped_partial c ->
        let plan = finish_partial spec c e.plan in
        [ { plan; est = estimate plan; tag = Grouped_final } ]
      | Ungrouped ->
        let hash = hash_group spec e.plan in
        let sorted_input =
          if
            is_prefix
              (List.map key_name spec.Grouping.gs_keys)
              (Physical.sorted_on e.plan)
          then e.plan
          else Physical.Sort { input = e.plan; cols = spec.Grouping.gs_keys; desc = [] }
        in
        let sortg =
          Physical.Sort_group
            {
              input = sorted_input;
              agg_qual = spec.Grouping.gs_qual;
              keys = spec.Grouping.gs_keys;
              aggs = spec.Grouping.gs_aggs;
              having = spec.Grouping.gs_having;
            }
        in
        [
          { plan = hash; est = estimate hash; tag = Grouped_final };
          { plan = sortg; est = estimate sortg; tag = Grouped_final };
        ])
  in
  let finals = List.concat_map finalize (entries full_mask) in
  (* Admitted last to first, so the first of tied finals ranks first. *)
  match
    List.fold_right
      (fun e acc -> Option.value ~default:acc (admit dominates_final e acc))
      finals []
  with
  | [] -> invalid_arg "Dp.optimize: no plan found (disconnected input?)"
  | frontier -> take max_finals frontier
