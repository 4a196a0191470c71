let node_label = function
  | Physical.Seq_scan s ->
    Printf.sprintf "SeqScan %s AS %s" (Physical.display_table s.table) s.alias
  | Physical.Index_scan s ->
    Printf.sprintf "IndexScan %s AS %s on %s" (Physical.display_table s.table)
      s.alias s.column
  | Physical.Filter _ -> "Filter"
  | Physical.Block_nl_join _ -> "BNLJoin"
  | Physical.Index_nl_join j ->
    Printf.sprintf "IndexNLJoin %s AS %s on %s" (Physical.display_table j.table)
      j.alias j.column
  | Physical.Hash_join _ -> "HashJoin"
  | Physical.Merge_join _ -> "MergeJoin"
  | Physical.Sort _ -> "Sort"
  | Physical.Hash_group _ -> "HashGroup"
  | Physical.Sort_group _ -> "SortGroup"
  | Physical.Project _ -> "Project"
  | Physical.Materialize _ -> "Materialize"
  | Physical.Limit l -> Printf.sprintf "Limit %d" l.count

let children = Physical.inputs

let pp cat ~work_mem ppf plan =
  let rec go indent node =
    let est = Cost_model.estimate cat ~work_mem node in
    Format.fprintf ppf "%s%-24s (rows=%.0f pages=%.0f cost=%.1f)@\n"
      (String.make indent ' ') (node_label node) est.Cost_model.rows
      est.Cost_model.pages est.Cost_model.cost;
    List.iter (go (indent + 2)) (children node)
  in
  go 0 plan
