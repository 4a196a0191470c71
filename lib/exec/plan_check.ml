exception Bad of string

let fail fmt = Format.kasprintf (fun s -> raise (Bad s)) fmt

let check_pred schema p =
  List.iter
    (fun c ->
      try ignore (Expr.resolve_column schema c)
      with Expr.Unresolved_column msg -> fail "unresolved column in predicate: %s" msg)
    (Expr.pred_columns p)

let check_expr schema e =
  List.iter
    (fun c ->
      try ignore (Expr.resolve_column schema c)
      with Expr.Unresolved_column msg -> fail "unresolved column in expression: %s" msg)
    (Expr.columns e)

let key_name (c : Schema.column) = (c.Schema.cqual, c.Schema.cname)

let rec is_prefix small big =
  match small, big with
  | [], _ -> true
  | _, [] -> false
  | (q, n) :: s, (q', n') :: b ->
    String.equal q q' && String.equal n n' && is_prefix s b

let index_exists cat table column =
  match Catalog.find_table cat table with
  | None -> fail "unknown table %s" table
  | Some tbl ->
    if Catalog.index_on tbl column = None then
      fail "no index on %s.%s" table column

let rescannable = function
  | Physical.Seq_scan _ | Physical.Index_scan _ | Physical.Materialize _ -> true
  | _ -> false

let rec walk cat plan : Schema.t =
  let schema = Physical.schema cat plan in
  (match plan with
   | Physical.Seq_scan s -> List.iter (check_pred schema) s.filter
   | Physical.Index_scan s ->
     index_exists cat s.table s.column;
     List.iter (check_pred schema) s.filter
   | Physical.Filter f ->
     let inner = walk cat f.input in
     List.iter (check_pred inner) f.pred
   | Physical.Project p ->
     let inner = walk cat p.input in
     List.iter (fun (e, _) -> check_expr inner e) p.cols
   | Physical.Materialize m -> ignore (walk cat m.input)
   | Physical.Limit l ->
     if l.count < 0 then fail "negative limit";
     ignore (walk cat l.input)
   | Physical.Sort s ->
     let inner = walk cat s.input in
     if s.desc <> [] && List.length s.desc <> List.length s.cols then
       fail "Sort: desc flags not parallel to sort columns";
     List.iter
       (fun k ->
         try ignore (Expr.resolve_column inner k)
         with Expr.Unresolved_column msg -> fail "unresolved sort key: %s" msg)
       s.cols
   | Physical.Block_nl_join j ->
     let l = walk cat j.left and r = walk cat j.right in
     if not (rescannable j.right) then
       fail "BNL inner is not rescannable: %s"
         (String.concat "," (List.map fst (Physical.relations j.right)));
     let out = Schema.append l r in
     List.iter (check_pred out) j.cond
   | Physical.Index_nl_join j ->
     let l = walk cat j.left in
     index_exists cat j.table j.column;
     (try ignore (Expr.resolve_column l j.outer_key)
      with Expr.Unresolved_column msg -> fail "unresolved INL outer key: %s" msg);
     List.iter (check_pred schema) j.cond
   | Physical.Hash_join j ->
     let l = walk cat j.left and r = walk cat j.right in
     List.iter
       (fun (a, b) ->
         (try ignore (Expr.resolve_column l a)
          with Expr.Unresolved_column msg -> fail "hash key (left): %s" msg);
         try ignore (Expr.resolve_column r b)
         with Expr.Unresolved_column msg -> fail "hash key (right): %s" msg)
       j.keys;
     List.iter (check_pred schema) j.cond
   | Physical.Merge_join j ->
     let l = walk cat j.left and r = walk cat j.right in
     ignore l;
     ignore r;
     let lkeys = List.map (fun (a, _) -> key_name a) j.keys in
     let rkeys = List.map (fun (_, b) -> key_name b) j.keys in
     if not (is_prefix lkeys (Physical.sorted_on j.left)) then
       fail "merge join left input not sorted on its keys";
     if not (is_prefix rkeys (Physical.sorted_on j.right)) then
       fail "merge join right input not sorted on its keys";
     List.iter (check_pred schema) j.cond
   | Physical.Hash_group g | Physical.Sort_group g ->
     let inner = walk cat g.input in
     List.iter
       (fun k ->
         try ignore (Expr.resolve_column inner k)
         with Expr.Unresolved_column msg -> fail "unresolved grouping key: %s" msg)
       g.keys;
     List.iter
       (fun (a : Aggregate.t) ->
         match a.Aggregate.arg with
         | None -> ()
         | Some e -> check_expr inner e)
       g.aggs;
     List.iter (check_pred schema) g.having;
     (match plan with
      | Physical.Sort_group _ ->
        let keys = List.map key_name g.keys in
        if not (is_prefix keys (Physical.sorted_on g.input)) then
          fail "sort-group input not sorted on the grouping keys"
      | _ -> ()));
  schema

let check cat plan =
  match walk cat plan with
  | _ -> Ok ()
  | exception Bad msg -> Error msg
  | exception Invalid_argument msg -> Error msg
