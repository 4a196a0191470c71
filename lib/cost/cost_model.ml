type est = { rows : float; width : int; pages : float; cost : float }

let pages_of ~rows ~width =
  if rows <= 0. then 0.
  else
    let cap = float_of_int (Page.capacity ~row_bytes:width) in
    Float.max 1. (Float.round (Float.ceil (rows /. cap)))

let cardenas ~n ~d =
  if d <= 1. then Float.min 1. n
  else if n <= 0. then 0.
  else d *. (1. -. ((1. -. (1. /. d)) ** n))

let group_rows env ~input_rows keys =
  if keys = [] then Float.min 1. input_rows
  else
    let d =
      List.fold_left
        (fun acc k -> acc *. Selectivity.ndv env k ~rows:input_rows)
        1. keys
    in
    let d = Float.min d 1e15 in
    Float.max 1. (cardenas ~n:input_rows ~d)

(* ---- plan-aware NDV of grouping columns ----

   The naive product-of-NDVs estimate badly overestimates group counts when
   the grouping columns are join keys (equalities make them one attribute)
   or are functionally determined by a primary key that is itself among the
   keys.  We refine it with three standard devices:
   - equivalence classes induced by the equi-join predicates of the subplan;
   - per-column NDV capped by the (filtered) cardinality of the scan the
     column comes from;
   - FD reduction: if a relation's full primary key is among the grouping
     columns, its other columns contribute no further groups. *)

let same_col (a : Schema.column) (b : Schema.column) =
  String.equal a.Schema.cqual b.Schema.cqual && String.equal a.Schema.cname b.Schema.cname

let rec equi_pairs = function
  | Physical.Block_nl_join j ->
    List.filter_map Expr.as_equijoin j.cond @ equi_pairs j.left @ equi_pairs j.right
  | Physical.Hash_join j -> j.keys @ equi_pairs j.left @ equi_pairs j.right
  | Physical.Merge_join j -> j.keys @ equi_pairs j.left @ equi_pairs j.right
  | Physical.Index_nl_join j ->
    let tbl_col ty = Schema.column ~qual:j.alias j.column ty in
    (j.outer_key, tbl_col j.outer_key.Schema.cty)
    :: (List.filter_map Expr.as_equijoin j.cond @ equi_pairs j.left)
  | Physical.Filter f -> equi_pairs f.input
  | Physical.Sort s -> equi_pairs s.input
  | Physical.Project p -> equi_pairs p.input
  | Physical.Materialize m -> equi_pairs m.input
  | Physical.Hash_group g | Physical.Sort_group g -> equi_pairs g.input
  | Physical.Limit l -> equi_pairs l.input
  | Physical.Seq_scan _ | Physical.Index_scan _ -> []

(* Estimated post-filter cardinality of the scan providing [alias]. *)
let rec scan_rows cat env alias = function
  | Physical.Seq_scan s when String.equal s.alias alias ->
    let tbl = Catalog.table_exn cat s.table in
    Some (float_of_int tbl.Catalog.tstats.Stats.card *. Selectivity.preds env s.filter)
  | Physical.Index_scan s when String.equal s.alias alias ->
    let tbl = Catalog.table_exn cat s.table in
    let card = float_of_int tbl.Catalog.tstats.Stats.card in
    let frac =
      match (try Some (Catalog.column_stats tbl s.column) with Not_found -> None) with
      | Some cs -> Histogram.sel_range cs.Stats.histogram ?lo:s.lo ?hi:s.hi ()
      | None -> Selectivity.default_range
    in
    Some (card *. frac *. Selectivity.preds env s.filter)
  | Physical.Index_nl_join j when String.equal j.alias alias ->
    let tbl = Catalog.table_exn cat j.table in
    Some (float_of_int tbl.Catalog.tstats.Stats.card)
  | Physical.Seq_scan _ | Physical.Index_scan _ -> None
  | Physical.Block_nl_join j ->
    (match scan_rows cat env alias j.left with
     | Some r -> Some r
     | None -> scan_rows cat env alias j.right)
  | Physical.Hash_join j ->
    (match scan_rows cat env alias j.left with
     | Some r -> Some r
     | None -> scan_rows cat env alias j.right)
  | Physical.Merge_join j ->
    (match scan_rows cat env alias j.left with
     | Some r -> Some r
     | None -> scan_rows cat env alias j.right)
  | Physical.Index_nl_join j -> scan_rows cat env alias j.left
  | Physical.Filter f -> scan_rows cat env alias f.input
  | Physical.Sort s -> scan_rows cat env alias s.input
  | Physical.Project p -> scan_rows cat env alias p.input
  | Physical.Materialize m -> scan_rows cat env alias m.input
  | Physical.Hash_group g | Physical.Sort_group g -> scan_rows cat env alias g.input
  | Physical.Limit l -> scan_rows cat env alias l.input

(* Plan-aware group count used by [estimate]: NDVs are capped by the
   filtered cardinality of the scan each key column comes from, grouping
   columns connected by the subplan's equi-join predicates count once
   (equivalence classes), and columns functionally determined by a primary
   key already among the keys are dropped. *)
let group_rows_in_plan cat env ~input_rows input keys =
  if keys = [] then Float.min 1. input_rows
  else begin
    (* FD reduction: drop non-PK columns of relations whose full PK is in
       the keys. *)
    let aliases = Physical.relations input in
    let pk_covered_alias alias =
      match List.assoc_opt alias aliases with
      | None -> false
      | Some table ->
        let pk = (Catalog.table_exn cat table).Catalog.primary_key in
        pk <> []
        && List.for_all
             (fun p ->
               List.exists
                 (fun (k' : Schema.column) ->
                   String.equal k'.Schema.cqual alias
                   && String.equal k'.Schema.cname p)
                 keys)
             pk
    in
    let keys =
      List.filter
        (fun (k : Schema.column) ->
          match List.assoc_opt k.Schema.cqual aliases with
          | None -> true
          | Some table ->
            let pk = (Catalog.table_exn cat table).Catalog.primary_key in
            (not (pk_covered_alias k.Schema.cqual))
            || List.exists (String.equal k.Schema.cname) pk)
        keys
    in
    (* Key shortcut: if some relation's full PK is among the keys and the
       input has no more rows than that relation contributes, every input
       row is its own group (Cardenas would underestimate by 1 - 1/e). *)
    let key_preserved =
      List.exists
        (fun (k : Schema.column) ->
          pk_covered_alias k.Schema.cqual
          &&
          match scan_rows cat env k.Schema.cqual input with
          | Some r -> input_rows <= r *. 1.05
          | None -> false)
        keys
    in
    if key_preserved then Float.max 1. input_rows
    else
    (* Equivalence classes from the subplan's equi-joins. *)
    let pairs = equi_pairs input in
    let classes : Schema.column list list ref = ref [] in
    let class_of c = List.find_opt (List.exists (same_col c)) !classes in
    let add_col c =
      if class_of c = None then classes := [ c ] :: !classes
    in
    List.iter
      (fun (a, b) ->
        add_col a;
        add_col b;
        let ca = Option.get (class_of a) and cb = Option.get (class_of b) in
        if ca != cb then
          classes := (ca @ cb) :: List.filter (fun cl -> cl != ca && cl != cb) !classes)
      pairs;
    List.iter add_col keys;
    let col_ndv (c : Schema.column) =
      let base = Selectivity.ndv env c ~rows:input_rows in
      match scan_rows cat env c.Schema.cqual input with
      | Some r -> Float.min base (Float.max 1. r)
      | None -> base
    in
    let class_ndv cls =
      List.fold_left (fun acc c -> Float.min acc (col_ndv c)) infinity cls
    in
    (* One factor per distinct class among the keys. *)
    let seen : Schema.column list list ref = ref [] in
    let d =
      List.fold_left
        (fun acc k ->
          let cls = Option.get (class_of k) in
          if List.exists (fun c -> c == cls) !seen then acc
          else begin
            seen := cls :: !seen;
            acc *. class_ndv cls
          end)
        1. keys
    in
    let d = Float.min (Float.min d 1e15) (Float.max 1. input_rows) in
    Float.max 1. (cardenas ~n:input_rows ~d)
  end

let plan_aware_grouping = ref true

let index_entry_bytes = 16  (* key + rid per leaf entry *)

(* Number of merge passes external sort needs for [pages] of data. *)
let sort_passes ~work_mem pages =
  if pages <= float_of_int work_mem then 0.
  else begin
    let fanin = float_of_int (max 2 (work_mem - 1)) in
    let runs = Float.ceil (pages /. float_of_int work_mem) in
    Float.max 1. (Float.ceil (log runs /. log fanin))
  end

let rec estimate cat ~work_mem plan =
  let env = Selectivity.of_aliases cat (Physical.relations plan) in
  est_node cat env ~work_mem plan

and est_node cat env ~work_mem plan =
  let recur p = est_node cat env ~work_mem p in
  let m = float_of_int work_mem in
  match plan with
  | Physical.Seq_scan s ->
    let tbl = Catalog.table_exn cat s.table in
    let card = float_of_int tbl.Catalog.tstats.Stats.card in
    let rows = card *. Selectivity.preds env s.filter in
    let width = tbl.Catalog.tstats.Stats.row_bytes in
    {
      rows;
      width;
      pages = pages_of ~rows ~width;
      cost = float_of_int tbl.Catalog.tstats.Stats.pages;
    }
  | Physical.Index_scan s ->
    let tbl = Catalog.table_exn cat s.table in
    let stats = tbl.Catalog.tstats in
    let card = float_of_int stats.Stats.card in
    let heap_pages = float_of_int stats.Stats.pages in
    let frac =
      match (try Some (Catalog.column_stats tbl s.column) with Not_found -> None) with
      | Some cs -> Histogram.sel_range cs.Stats.histogram ?lo:s.lo ?hi:s.hi ()
      | None -> Selectivity.default_range
    in
    let matched = card *. frac in
    let entries_per_page = float_of_int (Page.size / index_entry_bytes) in
    let leaf_pages = Float.max 1. (Float.ceil (card /. entries_per_page)) in
    let height = Float.max 1. (Float.ceil (log (Float.max 2. leaf_pages) /. log entries_per_page)) +. 1. in
    let clustered =
      match tbl.Catalog.clustered with
      | Some c -> String.equal c s.column
      | None -> false
    in
    let heap_fetch =
      if clustered then Float.ceil (frac *. heap_pages)
      else Float.min matched heap_pages
    in
    let rows = matched *. Selectivity.preds env s.filter in
    let width = stats.Stats.row_bytes in
    {
      rows;
      width;
      pages = pages_of ~rows ~width;
      cost = height +. Float.ceil (frac *. leaf_pages) +. heap_fetch;
    }
  | Physical.Filter f ->
    let e = recur f.input in
    let rows = e.rows *. Selectivity.preds env f.pred in
    { e with rows; pages = pages_of ~rows ~width:e.width }
  | Physical.Project p ->
    let e = recur p.input in
    let width =
      List.fold_left
        (fun acc (_, c) -> acc + Datatype.byte_width c.Schema.cty)
        0 p.cols
    in
    { e with width; pages = pages_of ~rows:e.rows ~width }
  | Physical.Materialize mt ->
    let e = recur mt.input in
    { e with cost = e.cost +. e.pages }
  | Physical.Limit l ->
    let e = recur l.input in
    let rows = Float.min e.rows (float_of_int l.count) in
    { e with rows; pages = pages_of ~rows ~width:e.width }
  | Physical.Sort s ->
    let e = recur s.input in
    let passes = sort_passes ~work_mem e.pages in
    { e with cost = e.cost +. (2. *. e.pages *. passes) }
  | Physical.Block_nl_join j ->
    let l = recur j.left and r = recur j.right in
    let nblocks = Float.max 1. (Float.ceil (l.pages /. Float.max 1. (m -. 1.))) in
    let rescan =
      match j.right with
      | Physical.Materialize _ -> r.pages
      | Physical.Seq_scan _ | Physical.Index_scan _ -> r.cost
      | _ -> r.cost
    in
    let first =
      match j.right with Physical.Materialize _ -> r.cost | _ -> 0.
    in
    let rows = l.rows *. r.rows *. Selectivity.preds env j.cond in
    let width = l.width + r.width in
    {
      rows;
      width;
      pages = pages_of ~rows ~width;
      cost = l.cost +. first +. (nblocks *. rescan);
    }
  | Physical.Index_nl_join j ->
    let l = recur j.left in
    let tbl = Catalog.table_exn cat j.table in
    let stats = tbl.Catalog.tstats in
    let card = float_of_int stats.Stats.card in
    let col_ndv =
      match (try Some (Catalog.column_stats tbl j.column) with Not_found -> None) with
      | Some cs -> float_of_int cs.Stats.ndv
      | None -> Float.max 1. (card /. 10.)
    in
    let matches = card /. Float.max 1. col_ndv in
    let entries_per_page = float_of_int (Page.size / index_entry_bytes) in
    let leaf_pages = Float.max 1. (Float.ceil (card /. entries_per_page)) in
    let height = Float.max 1. (Float.ceil (log (Float.max 2. leaf_pages) /. log entries_per_page)) +. 1. in
    let clustered =
      match tbl.Catalog.clustered with
      | Some c -> String.equal c j.column
      | None -> false
    in
    let heap_fetch =
      if clustered then
        let cap = float_of_int (Page.capacity ~row_bytes:stats.Stats.row_bytes) in
        Float.ceil (matches /. cap)
      else matches
    in
    let per_probe = height +. Float.max 1. heap_fetch in
    let rows = l.rows *. matches *. Selectivity.preds env j.cond in
    let width = l.width + stats.Stats.row_bytes in
    {
      rows;
      width;
      pages = pages_of ~rows ~width;
      cost = l.cost +. (l.rows *. per_probe);
    }
  | Physical.Hash_join j ->
    let l = recur j.left and r = recur j.right in
    let build = match j.build_side with `Left -> l | `Right -> r in
    let spill = if build.pages > m then 2. *. (l.pages +. r.pages) else 0. in
    let key_sel =
      List.fold_left
        (fun acc (a, b) ->
          let da = Selectivity.ndv env a ~rows:l.rows in
          let db = Selectivity.ndv env b ~rows:r.rows in
          acc /. Float.max 1. (Float.max da db))
        1. j.keys
    in
    let rows = l.rows *. r.rows *. key_sel *. Selectivity.preds env j.cond in
    let width = l.width + r.width in
    {
      rows;
      width;
      pages = pages_of ~rows ~width;
      cost = l.cost +. r.cost +. spill;
    }
  | Physical.Merge_join j ->
    let l = recur j.left and r = recur j.right in
    let key_sel =
      List.fold_left
        (fun acc (a, b) ->
          let da = Selectivity.ndv env a ~rows:l.rows in
          let db = Selectivity.ndv env b ~rows:r.rows in
          acc /. Float.max 1. (Float.max da db))
        1. j.keys
    in
    let rows = l.rows *. r.rows *. key_sel *. Selectivity.preds env j.cond in
    let width = l.width + r.width in
    { rows; width; pages = pages_of ~rows ~width; cost = l.cost +. r.cost }
  | Physical.Hash_group g | Physical.Sort_group g ->
    let e = recur g.input in
    let groups =
      if !plan_aware_grouping then
        group_rows_in_plan cat env ~input_rows:e.rows g.input g.keys
      else group_rows env ~input_rows:e.rows g.keys
    in
    let rows = groups *. Selectivity.preds env g.having in
    let width =
      List.fold_left (fun acc k -> acc + Datatype.byte_width k.Schema.cty) 0 g.keys
      + List.fold_left
          (fun acc a -> acc + Datatype.byte_width (Aggregate.result_type a))
          0 g.aggs
    in
    { rows; width; pages = pages_of ~rows ~width; cost = e.cost }

let pp_est ppf e =
  Format.fprintf ppf "rows=%.1f width=%dB pages=%.1f cost=%.1f" e.rows e.width
    e.pages e.cost
