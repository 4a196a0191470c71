type t =
  | Scan of { alias : string; table : string; schema : Schema.t }
  | Filter of { input : t; pred : Expr.pred }
  | Join of { left : t; right : t; cond : Expr.pred list }
  | Group of {
      input : t;
      agg_qual : string;
      keys : Schema.column list;
      aggs : Aggregate.t list;
      having : Expr.pred list;
    }
  | Project of { input : t; cols : (Expr.t * Schema.column) list }

let group_schema ~agg_qual ~keys ~aggs input_schema =
  List.iter
    (fun k ->
      if Schema.index_of_column input_schema k = None then
        invalid_arg
          (Printf.sprintf "Logical: grouping column %s not in input"
             (Schema.column_to_string k)))
    keys;
  let agg_cols =
    List.map
      (fun (a : Aggregate.t) ->
        Schema.column ~qual:agg_qual a.Aggregate.out_name (Aggregate.result_type a))
      aggs
  in
  Schema.of_columns (keys @ agg_cols)

let rec schema = function
  | Scan s -> s.schema
  | Filter f -> schema f.input
  | Join j -> Schema.append (schema j.left) (schema j.right)
  | Group g -> group_schema ~agg_qual:g.agg_qual ~keys:g.keys ~aggs:g.aggs (schema g.input)
  | Project p ->
    Schema.of_columns (List.map snd p.cols)

let scan cat ~alias table =
  let tbl = Catalog.table_exn cat table in
  Scan { alias; table; schema = Schema.rename_qualifier tbl.Catalog.tschema alias }

let rec relations = function
  | Scan s -> [ (s.alias, s.table) ]
  | Filter f -> relations f.input
  | Join j -> relations j.left @ relations j.right
  | Group g -> relations g.input
  | Project p -> relations p.input

(* ---- reference interpreter ---- *)

let eval_group input_rel ~agg_qual ~keys ~aggs ~having =
  let in_schema = Relation.schema input_rel in
  let out_schema = group_schema ~agg_qual ~keys ~aggs in_schema in
  let key_idx =
    Array.of_list
      (List.map (fun k -> Schema.find_exn in_schema ~qual:k.Schema.cqual k.Schema.cname) keys)
  in
  let arg_fns =
    List.map
      (fun (a : Aggregate.t) ->
        match a.Aggregate.arg with
        | None -> fun _ -> None
        | Some e ->
          let f = Expr.compile in_schema e in
          fun tup -> Some (f tup))
      aggs
  in
  let tbl : (Tuple.t, Aggregate.state list) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  Relation.iter
    (fun tup ->
      let k = Tuple.project_arr tup key_idx in
      let states =
        match Hashtbl.find_opt tbl k with
        | Some s -> s
        | None ->
          order := k :: !order;
          List.map (fun (a : Aggregate.t) -> Aggregate.init a.Aggregate.func) aggs
      in
      let states' =
        List.map2 (fun st f -> Aggregate.step st (f tup)) states arg_fns
      in
      Hashtbl.replace tbl k states')
    input_rel;
  let out_rows =
    List.rev_map
      (fun k ->
        let states = Hashtbl.find tbl k in
        Tuple.concat k (Array.of_list (List.map Aggregate.finish states)))
      !order
  in
  let rel = Relation.create out_schema out_rows in
  match Expr.conjoin having with
  | None -> rel
  | Some p ->
    let f = Expr.compile_pred out_schema p in
    Relation.filter f rel

let resolve schema c =
  match Expr.resolve_column schema c with
  | i -> Some i
  | exception Expr.Unresolved_column _ -> None

let covers schema p =
  List.for_all (fun c -> resolve schema c <> None) (Expr.pred_columns p)

let filter_rel rel = function
  | [] -> rel
  | ps -> Relation.filter (Expr.compile_pred (Relation.schema rel) (Option.get (Expr.conjoin ps))) rel

(* Hash join of two relations under [cond], in nested-loop order: left-major,
   each left tuple's matches in right order.  Buckets are keyed on
   [Tuple.hash_at] of the equi-join columns, which hashes equal values alike
   whatever their numeric representation; [cond] itself, applied to every
   candidate pair, decides the match. *)
let join_rel lrel rrel cond =
  let ls = Relation.schema lrel and rs = Relation.schema rrel in
  let out = Schema.append ls rs in
  let keep =
    match Expr.conjoin cond with
    | None -> fun _ -> true
    | Some p -> Expr.compile_pred out p
  in
  let keys =
    List.filter_map
      (fun p ->
        match Expr.as_equijoin p with
        | None -> None
        | Some (a, b) -> (
          match (resolve ls a, resolve rs b) with
          | Some i, Some j -> Some (i, j)
          | _ -> (
            match (resolve ls b, resolve rs a) with
            | Some i, Some j -> Some (i, j)
            | _ -> None)))
      cond
  in
  let lk = Array.of_list (List.map fst keys) and rk = Array.of_list (List.map snd keys) in
  let buckets = Hashtbl.create 1024 in
  (* [find_all] returns the latest binding first: add in reverse. *)
  List.iter
    (fun rt -> Hashtbl.add buckets (Tuple.hash_at rk rt) rt)
    (List.rev (Relation.tuples rrel));
  let rows =
    Relation.fold
      (fun acc lt ->
        List.fold_left
          (fun acc rt ->
            let tup = Tuple.concat lt rt in
            if keep tup then tup :: acc else acc)
          acc
          (Hashtbl.find_all buckets (Tuple.hash_at lk lt)))
      [] lrel
  in
  Relation.create out (List.rev rows)

let rec join_inputs = function
  | Join { left; right; cond } ->
    let li, lc = join_inputs left and ri, rc = join_inputs right in
    (li @ ri, lc @ rc @ cond)
  | t -> ([ t ], [])

(* Join the inputs of a join chain under all of its conjuncts.  Each
   conjunct applies as soon as its columns are bound, and the next input is
   the first one an equi-join conjunct links to what is joined so far (FROM
   order otherwise), so no cross product is built where a join key exists.
   The result's columns are then put back in FROM order. *)
let join_all rels conds =
  let rels = List.mapi (fun i r -> (i, r)) rels in
  let rec go acc order pending conds =
    match pending with
    | [] -> (filter_rel acc conds, List.rev order)
    | first :: _ ->
      let with_ (_, r) = Schema.append (Relation.schema acc) (Relation.schema r) in
      let linked r =
        List.exists
          (fun p ->
            Expr.as_equijoin p <> None && covers (with_ r) p
            && not (covers (Relation.schema acc) p))
          conds
      in
      let next = Option.value ~default:first (List.find_opt linked pending) in
      let now, later = List.partition (covers (with_ next)) conds in
      go (join_rel acc (snd next) now) (fst next :: order)
        (List.filter (fun r -> r != next) pending)
        later
  in
  match rels with
  | [] -> invalid_arg "Logical.eval: join without inputs"
  | (i, first) :: rest ->
    let now, later = List.partition (covers (Relation.schema first)) conds in
    let joined, order = go (filter_rel first now) [ i ] rest later in
    let width i = Schema.arity (Relation.schema (List.assoc i rels)) in
    (* [offset.(i)]: where input [i]'s columns start in [joined]. *)
    let offset = Array.make (List.length rels) 0 in
    ignore (List.fold_left (fun off i -> offset.(i) <- off; off + width i) 0 order);
    let perm =
      Array.concat (List.map (fun (i, _) -> Array.init (width i) (fun j -> offset.(i) + j)) rels)
    in
    let schema =
      Schema.of_columns
        (List.concat_map (fun (_, r) -> Schema.columns (Relation.schema r)) rels)
    in
    if List.for_all2 ( = ) order (List.map fst rels) then joined
    else Relation.map_tuples schema (fun tup -> Array.map (fun p -> tup.(p)) perm) joined

let rec eval cat = function
  | Scan s ->
    let tbl = Catalog.table_exn cat s.table in
    let rel = Heap_file.to_relation tbl.Catalog.heap in
    Relation.create s.schema (Relation.tuples rel)
  | Filter { input = Join _ as j; pred } ->
    let inputs, conds = join_inputs j in
    join_all (List.map (eval cat) inputs) (conds @ Expr.conjuncts pred)
  | Filter f ->
    let rel = eval cat f.input in
    Relation.filter (Expr.compile_pred (Relation.schema rel) f.pred) rel
  | Join _ as j ->
    let inputs, conds = join_inputs j in
    join_all (List.map (eval cat) inputs) conds
  | Group g ->
    eval_group (eval cat g.input) ~agg_qual:g.agg_qual ~keys:g.keys ~aggs:g.aggs
      ~having:g.having
  | Project p ->
    let rel = eval cat p.input in
    let in_schema = Relation.schema rel in
    let fns = List.map (fun (e, _) -> Expr.compile in_schema e) p.cols in
    let out_schema = Schema.of_columns (List.map snd p.cols) in
    Relation.map_tuples out_schema
      (fun tup -> Array.of_list (List.map (fun f -> f tup) fns))
      rel

let rec pp_indent ppf (indent, t) =
  let pad = String.make indent ' ' in
  match t with
  | Scan s -> Format.fprintf ppf "%sScan %s AS %s" pad s.table s.alias
  | Filter f ->
    Format.fprintf ppf "%sFilter [%a]@\n%a" pad Expr.pp_pred f.pred pp_indent
      (indent + 2, f.input)
  | Join j ->
    let conds = String.concat " AND " (List.map Expr.pred_to_string j.cond) in
    Format.fprintf ppf "%sJoin [%s]@\n%a@\n%a" pad conds pp_indent
      (indent + 2, j.left) pp_indent (indent + 2, j.right)
  | Group g ->
    let keys = String.concat ", " (List.map Schema.column_to_string g.keys) in
    let aggs = String.concat ", " (List.map Aggregate.to_string g.aggs) in
    let hv =
      match g.having with
      | [] -> ""
      | ps -> " HAVING " ^ String.concat " AND " (List.map Expr.pred_to_string ps)
    in
    Format.fprintf ppf "%sGroup [%s | %s%s]@\n%a" pad keys aggs hv pp_indent
      (indent + 2, g.input)
  | Project p ->
    let cols =
      String.concat ", "
        (List.map
           (fun (e, c) ->
             Printf.sprintf "%s AS %s" (Expr.to_string e) (Schema.column_to_string c))
           p.cols)
    in
    Format.fprintf ppf "%sProject [%s]@\n%a" pad cols pp_indent (indent + 2, p.input)

let pp ppf t = pp_indent ppf (0, t)
