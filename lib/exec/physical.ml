type bound = Value.t * bool

type t =
  | Seq_scan of { alias : string; table : string; filter : Expr.pred list }
  | Index_scan of {
      alias : string;
      table : string;
      column : string;
      lo : bound option;
      hi : bound option;
      filter : Expr.pred list;
    }
  | Filter of { input : t; pred : Expr.pred list }
  | Block_nl_join of { left : t; right : t; cond : Expr.pred list }
  | Index_nl_join of {
      left : t;
      alias : string;
      table : string;
      column : string;
      outer_key : Schema.column;
      cond : Expr.pred list;
    }
  | Hash_join of {
      left : t;
      right : t;
      keys : (Schema.column * Schema.column) list;
      cond : Expr.pred list;
      build_side : [ `Left | `Right ];
    }
  | Merge_join of {
      left : t;
      right : t;
      keys : (Schema.column * Schema.column) list;
      cond : Expr.pred list;
    }
  | Sort of { input : t; cols : Schema.column list; desc : bool list }
  | Hash_group of group
  | Sort_group of group
  | Project of { input : t; cols : (Expr.t * Schema.column) list }
  | Materialize of { input : t }
  | Limit of { input : t; count : int }

and group = {
  input : t;
  agg_qual : string;
  keys : Schema.column list;
  aggs : Aggregate.t list;
  having : Expr.pred list;
}

let table_schema cat ~alias table =
  let tbl = Catalog.table_exn cat table in
  Schema.rename_qualifier tbl.Catalog.tschema alias

let rec schema cat = function
  | Seq_scan s -> table_schema cat ~alias:s.alias s.table
  | Index_scan s -> table_schema cat ~alias:s.alias s.table
  | Filter f -> schema cat f.input
  | Block_nl_join j -> Schema.append (schema cat j.left) (schema cat j.right)
  | Index_nl_join j ->
    Schema.append (schema cat j.left) (table_schema cat ~alias:j.alias j.table)
  | Hash_join j -> Schema.append (schema cat j.left) (schema cat j.right)
  | Merge_join j -> Schema.append (schema cat j.left) (schema cat j.right)
  | Sort s -> schema cat s.input
  | Hash_group g | Sort_group g ->
    let in_schema = schema cat g.input in
    List.iter
      (fun k ->
        if Schema.index_of_column in_schema k = None then
          invalid_arg
            (Printf.sprintf "Physical: grouping column %s not in input"
               (Schema.column_to_string k)))
      g.keys;
    let agg_cols =
      List.map
        (fun (a : Aggregate.t) ->
          Schema.column ~qual:g.agg_qual a.Aggregate.out_name (Aggregate.result_type a))
        g.aggs
    in
    Schema.of_columns (g.keys @ agg_cols)
  | Project p -> Schema.of_columns (List.map snd p.cols)
  | Materialize m -> schema cat m.input
  | Limit l -> schema cat l.input

let key_name (c : Schema.column) = (c.Schema.cqual, c.Schema.cname)

let rec sorted_on = function
  (* A descending sort produces no ascending order property downstream
     consumers (merge join, sort-group) can reuse. *)
  | Sort s when List.exists Fun.id s.desc -> []
  | Sort s -> List.map key_name s.cols
  | Merge_join j -> List.map (fun (a, _) -> key_name a) j.keys
  | Sort_group g -> List.map key_name g.keys
  | Index_scan s -> [ (s.alias, s.column) ]
  | Filter f -> sorted_on f.input
  | Materialize m -> sorted_on m.input
  | Limit l -> sorted_on l.input
  | Project p ->
    (* Order survives as long as the leading sort columns are still present
       (as plain column references). *)
    let retained (q, n) =
      List.exists
        (fun (e, _) ->
          match e with
          | Expr.Col c -> String.equal c.Schema.cqual q && String.equal c.Schema.cname n
          | _ -> false)
        p.cols
    in
    let rec prefix = function
      | c :: rest when retained c -> c :: prefix rest
      | _ -> []
    in
    prefix (sorted_on p.input)
  | Seq_scan _ | Block_nl_join _ | Index_nl_join _ | Hash_join _ | Hash_group _ -> []

let rec relations = function
  | Seq_scan s -> [ (s.alias, s.table) ]
  | Index_scan s -> [ (s.alias, s.table) ]
  | Filter f -> relations f.input
  | Block_nl_join j -> relations j.left @ relations j.right
  | Index_nl_join j -> relations j.left @ [ (j.alias, j.table) ]
  | Hash_join j -> relations j.left @ relations j.right
  | Merge_join j -> relations j.left @ relations j.right
  | Sort s -> relations s.input
  | Hash_group g | Sort_group g -> relations g.input
  | Project p -> relations p.input
  | Materialize m -> relations m.input
  | Limit l -> relations l.input

(* Materialized-view extents are backed by hidden [__mv_<name>] heap
   tables; display them as [mv:<name>] so EXPLAIN (and the op names that
   EXPLAIN ANALYZE zips actuals onto) attribute work to the view the user
   created, not to an internal table id. *)
let mv_prefix = "__mv_"

let display_table t =
  if String.length t > String.length mv_prefix
     && String.sub t 0 (String.length mv_prefix) = mv_prefix
  then
    "mv:"
    ^ String.sub t (String.length mv_prefix)
        (String.length t - String.length mv_prefix)
  else t

let preds_str ps = String.concat " AND " (List.map Expr.pred_to_string ps)
let cols_str cs = String.concat ", " (List.map Schema.column_to_string cs)

let keys_str keys =
  String.concat ", "
    (List.map
       (fun (a, b) ->
         Printf.sprintf "%s=%s" (Schema.column_to_string a) (Schema.column_to_string b))
       keys)

let rec pp_node ppf (indent, t) =
  let pad = String.make indent ' ' in
  let child c = (indent + 2, c) in
  match t with
  | Seq_scan s ->
    Format.fprintf ppf "%sSeqScan %s AS %s%s" pad (display_table s.table) s.alias
      (if s.filter = [] then "" else " [" ^ preds_str s.filter ^ "]")
  | Index_scan s ->
    let b side = function
      | None -> ""
      | Some (v, incl) ->
        Printf.sprintf " %s%s %s" side (if incl then "=" else "") (Value.to_string v)
    in
    Format.fprintf ppf "%sIndexScan %s AS %s on %s%s%s%s" pad (display_table s.table) s.alias s.column
      (b ">" s.lo) (b "<" s.hi)
      (if s.filter = [] then "" else " [" ^ preds_str s.filter ^ "]")
  | Filter f ->
    Format.fprintf ppf "%sFilter [%s]@\n%a" pad (preds_str f.pred) pp_node
      (child f.input)
  | Block_nl_join j ->
    Format.fprintf ppf "%sBNLJoin [%s]@\n%a@\n%a" pad (preds_str j.cond) pp_node
      (child j.left) pp_node (child j.right)
  | Index_nl_join j ->
    Format.fprintf ppf "%sIndexNLJoin %s AS %s via %s = %s%s@\n%a" pad (display_table j.table)
      j.alias j.column
      (Schema.column_to_string j.outer_key)
      (if j.cond = [] then "" else " [" ^ preds_str j.cond ^ "]")
      pp_node (child j.left)
  | Hash_join j ->
    Format.fprintf ppf "%sHashJoin [%s]%s build=%s@\n%a@\n%a" pad (keys_str j.keys)
      (if j.cond = [] then "" else " [" ^ preds_str j.cond ^ "]")
      (match j.build_side with `Left -> "left" | `Right -> "right")
      pp_node (child j.left) pp_node (child j.right)
  | Merge_join j ->
    Format.fprintf ppf "%sMergeJoin [%s]%s@\n%a@\n%a" pad (keys_str j.keys)
      (if j.cond = [] then "" else " [" ^ preds_str j.cond ^ "]")
      pp_node (child j.left) pp_node (child j.right)
  | Sort s ->
    let dir =
      if List.exists Fun.id s.desc then
        " <"
        ^ String.concat ", " (List.map (fun d -> if d then "desc" else "asc") s.desc)
        ^ ">"
      else ""
    in
    Format.fprintf ppf "%sSort [%s]%s@\n%a" pad (cols_str s.cols) dir pp_node
      (child s.input)
  | Hash_group g ->
    Format.fprintf ppf "%sHashGroup [%s | %s]%s@\n%a" pad (cols_str g.keys)
      (String.concat ", " (List.map Aggregate.to_string g.aggs))
      (if g.having = [] then "" else " HAVING " ^ preds_str g.having)
      pp_node (child g.input)
  | Sort_group g ->
    Format.fprintf ppf "%sSortGroup [%s | %s]%s@\n%a" pad (cols_str g.keys)
      (String.concat ", " (List.map Aggregate.to_string g.aggs))
      (if g.having = [] then "" else " HAVING " ^ preds_str g.having)
      pp_node (child g.input)
  | Project p ->
    let cols =
      String.concat ", "
        (List.map
           (fun (e, c) ->
             Printf.sprintf "%s AS %s" (Expr.to_string e) (Schema.column_to_string c))
           p.cols)
    in
    Format.fprintf ppf "%sProject [%s]@\n%a" pad cols pp_node (child p.input)
  | Materialize m ->
    Format.fprintf ppf "%sMaterialize@\n%a" pad pp_node (child m.input)
  | Limit l ->
    Format.fprintf ppf "%sLimit %d@\n%a" pad l.count pp_node (child l.input)

let pp ppf t = pp_node ppf (0, t)
let to_string t = Format.asprintf "%a" pp t

(* Short operator name — the shared vocabulary between profile nodes,
   trace spans and EXPLAIN ANALYZE, so actuals can be zipped back onto the
   plan tree by name. *)
let op_name = function
  | Seq_scan s -> "SeqScan(" ^ display_table s.table ^ ")"
  | Index_scan s -> "IndexScan(" ^ display_table s.table ^ ")"
  | Filter _ -> "Filter"
  | Project _ -> "Project"
  | Materialize _ -> "Materialize"
  | Sort _ -> "Sort"
  | Limit _ -> "Limit"
  | Block_nl_join _ -> "BNLJoin"
  | Index_nl_join j -> "IndexNLJoin(" ^ display_table j.table ^ ")"
  | Hash_join _ -> "HashJoin"
  | Merge_join _ -> "MergeJoin"
  | Hash_group _ -> "HashGroup"
  | Sort_group _ -> "SortGroup"

let inputs = function
  | Seq_scan _ | Index_scan _ -> []
  | Filter f -> [ f.input ]
  | Project p -> [ p.input ]
  | Materialize m -> [ m.input ]
  | Sort s -> [ s.input ]
  | Limit l -> [ l.input ]
  | Block_nl_join j -> [ j.left; j.right ]
  | Index_nl_join j -> [ j.left ]
  | Hash_join j -> [ j.left; j.right ]
  | Merge_join j -> [ j.left; j.right ]
  | Hash_group g | Sort_group g -> [ g.input ]
