(* Base-table access shapes allowed as R2: a scan, optionally filtered. *)
let rec base_access cat = function
  | Logical.Scan s -> Some (s.alias, s.table, s.schema)
  | Logical.Filter f -> base_access cat f.input
  | Logical.Join _ | Logical.Group _ | Logical.Project _ -> None

let mentions_agg_cols agg_cols p =
  List.exists
    (fun c -> List.exists (Schema.column_equal c) agg_cols)
    (Expr.pred_columns p)

let rewrite cat tree =
  match tree with
  | Logical.Join { left = Logical.Group g; right; cond } -> (
    match base_access cat right with
    | None -> None
    | Some (_alias, table, r2_schema) ->
      let tbl = Catalog.table_exn cat table in
      if tbl.Catalog.primary_key = [] then None
      else begin
        let agg_cols =
          List.map
            (fun (a : Aggregate.t) ->
              Schema.column ~qual:g.agg_qual a.Aggregate.out_name
                (Aggregate.result_type a))
            g.aggs
        in
        let deferred, kept = List.partition (mentions_agg_cols agg_cols) cond in
        let g2_keys = g.keys @ Schema.columns r2_schema in
        let joined = Logical.Join { left = g.input; right; cond = kept } in
        let g2 =
          Logical.Group
            {
              input = joined;
              agg_qual = g.agg_qual;
              keys = g2_keys;
              aggs = g.aggs;
              having = g.having @ deferred;
            }
        in
        (* Restore P1's output schema (group output ++ R2 columns). *)
        let p1_schema = Logical.schema tree in
        let cols =
          List.map (fun c -> (Expr.Col c, c)) (Schema.columns p1_schema)
        in
        Some (Logical.Project { input = g2; cols })
      end)
  | Logical.Scan _ | Logical.Filter _ | Logical.Join _ | Logical.Group _
  | Logical.Project _ ->
    None
