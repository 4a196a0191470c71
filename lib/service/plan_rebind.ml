let mapping ~old_params ~new_params =
  if List.length old_params <> List.length new_params then
    invalid_arg "Plan_rebind.mapping: parameter vectors differ in length";
  let pairs = List.combine old_params new_params in
  let consistent =
    List.for_all
      (fun (o, n) ->
        List.for_all (fun (o', n') -> o <> o' || n = n') pairs)
      pairs
  in
  if consistent then Some pairs else None

let subst_value pairs v =
  match List.assoc_opt v pairs with Some v' -> v' | None -> v

let rec subst_expr pairs = function
  | Expr.Col _ as e -> e
  | Expr.Const v -> Expr.Const (subst_value pairs v)
  | Expr.Binop (op, a, b) ->
    let a = subst_expr pairs a in
    let b = subst_expr pairs b in
    Expr.Binop (op, a, b)

let rec subst_pred pairs = function
  | Expr.Cmp (op, a, b) ->
    let a = subst_expr pairs a in
    let b = subst_expr pairs b in
    Expr.Cmp (op, a, b)
  | Expr.And (a, b) ->
    let a = subst_pred pairs a in
    let b = subst_pred pairs b in
    Expr.And (a, b)
  | Expr.Or (a, b) ->
    let a = subst_pred pairs a in
    let b = subst_pred pairs b in
    Expr.Or (a, b)
  | Expr.Not a -> Expr.Not (subst_pred pairs a)

let rebind pairs plan =
  let preds = List.map (subst_pred pairs) in
  let bound = Option.map (fun (v, incl) -> (subst_value pairs v, incl)) in
  let rec go = function
    | Physical.Seq_scan s -> Physical.Seq_scan { s with filter = preds s.filter }
    | Physical.Index_scan s ->
      Physical.Index_scan
        { s with lo = bound s.lo; hi = bound s.hi; filter = preds s.filter }
    | Physical.Filter f ->
      Physical.Filter { input = go f.input; pred = preds f.pred }
    | Physical.Block_nl_join j ->
      Physical.Block_nl_join
        { left = go j.left; right = go j.right; cond = preds j.cond }
    | Physical.Index_nl_join j ->
      Physical.Index_nl_join { j with left = go j.left; cond = preds j.cond }
    | Physical.Hash_join j ->
      Physical.Hash_join
        { j with left = go j.left; right = go j.right; cond = preds j.cond }
    | Physical.Merge_join j ->
      Physical.Merge_join
        { j with left = go j.left; right = go j.right; cond = preds j.cond }
    | Physical.Sort s -> Physical.Sort { s with input = go s.input }
    | Physical.Hash_group g -> Physical.Hash_group (group g)
    | Physical.Sort_group g -> Physical.Sort_group (group g)
    | Physical.Project p -> Physical.Project { p with input = go p.input }
    | Physical.Materialize m -> Physical.Materialize { input = go m.input }
    | Physical.Limit l -> Physical.Limit { l with input = go l.input }
  (* Aggregate arguments are template constants: only [having] is re-bound. *)
  and group g =
    { g with Physical.input = go g.Physical.input;
      having = preds g.Physical.having }
  in
  go plan
