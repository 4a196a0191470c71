(* Reference answers for the correctness gate, and the comparison of a TCP
   reply body against them.

   A statement's reference is its canonical Logical tree
   ([Block.query_logical]) evaluated with Logical's operator semantics.
   Join-free subtrees go to [Logical.eval] unchanged.  A chain of joins and
   the filter above it are evaluated here instead: [Logical.eval] joins by
   nested loops in FROM order, and a predicate that names a view's output
   only applies above the whole cross product, so scan_star's
   aggregate-view query takes ~17 s there.  This evaluator joins the same
   inputs, hashing on equi-join conjuncts and applying every conjunct as
   soon as its columns are present; the result is the same bag.  A test
   checks the two evaluators agree. *)

let rec has_join = function
  | Logical.Scan _ -> false
  | Logical.Join _ -> true
  | Logical.Filter { input; _ } | Logical.Group { input; _ }
  | Logical.Project { input; _ } ->
    has_join input

(* Equal numbers must hash equally whatever their representation
   ([Value.compare] treats Int 3 and Float 3. as equal). *)
let hash_value = function
  | Value.Int i -> Value.Float (float_of_int i)
  | Value.Float f when f = 0. -> Value.Float 0.
  | v -> v

let resolve schema c =
  match Expr.resolve_column schema c with
  | i -> Some i
  | exception Expr.Unresolved_column _ -> None

let join lrel rrel cond =
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
  let key idx tup = Array.map (fun i -> hash_value tup.(i)) idx in
  let lk = Array.of_list (List.map fst keys) and rk = Array.of_list (List.map snd keys) in
  let buckets = Hashtbl.create 1024 in
  Relation.iter (fun rt -> Hashtbl.add buckets (key rk rt) rt) rrel;
  let rows =
    Relation.fold
      (fun acc lt ->
        List.fold_left
          (fun acc rt ->
            let tup = Tuple.concat lt rt in
            if keep tup then tup :: acc else acc)
          acc
          (Hashtbl.find_all buckets (key lk lt)))
      [] lrel
  in
  Relation.create out rows

(* Logical's group-by: groups in first-seen order, HAVING on the output. *)
let group rel out_schema ~keys ~aggs ~having =
  let in_schema = Relation.schema rel in
  let key_idx =
    Array.of_list
      (List.map
         (fun k -> Schema.find_exn in_schema ~qual:k.Schema.cqual k.Schema.cname)
         keys)
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
  let states = Hashtbl.create 64 and order = ref [] in
  Relation.iter
    (fun tup ->
      let k = Tuple.project_arr tup key_idx in
      let st =
        match Hashtbl.find_opt states k with
        | Some st -> st
        | None ->
          order := k :: !order;
          List.map (fun (a : Aggregate.t) -> Aggregate.init a.Aggregate.func) aggs
      in
      Hashtbl.replace states k (List.map2 (fun s f -> Aggregate.step s (f tup)) st arg_fns))
    rel;
  let rows =
    List.rev_map
      (fun k ->
        Tuple.concat k
          (Array.of_list (List.map Aggregate.finish (Hashtbl.find states k))))
      !order
  in
  let out = Relation.create out_schema rows in
  match Expr.conjoin having with
  | None -> out
  | Some p -> Relation.filter (Expr.compile_pred out_schema p) out

let rec join_inputs = function
  | Logical.Join { left; right; cond } ->
    let li, lc = join_inputs left and ri, rc = join_inputs right in
    (li @ ri, lc @ rc @ cond)
  | t -> ([ t ], [])

let covers schema p =
  List.for_all (fun c -> resolve schema c <> None) (Expr.pred_columns p)

let filter rel = function
  | [] -> rel
  | ps ->
    let keep = Expr.compile_pred (Relation.schema rel) (Option.get (Expr.conjoin ps)) in
    Relation.filter keep rel

(* Join [rels] under the conjuncts [conds].  The next input is the first
   one an equi-join conjunct links to what is joined so far (FROM order
   otherwise), so no cross product is built where a join key exists. *)
let join_all rels conds =
  let rec go acc pending conds =
    match pending with
    | [] -> filter acc conds
    | first :: _ ->
      let with_ r = Schema.append (Relation.schema acc) (Relation.schema r) in
      let linked r =
        List.exists
          (fun p ->
            Expr.as_equijoin p <> None && covers (with_ r) p
            && not (covers (Relation.schema acc) p))
          conds
      in
      let next = Option.value ~default:first (List.find_opt linked pending) in
      let now, later = List.partition (covers (with_ next)) conds in
      go (join acc next now) (List.filter (fun r -> r != next) pending) later
  in
  match rels with
  | [] -> invalid_arg "Oracle.join_all: no inputs"
  | first :: rest ->
    let now, later = List.partition (covers (Relation.schema first)) conds in
    go (filter first now) rest later

let rec eval cat t =
  if not (has_join t) then Logical.eval cat t
  else
    match t with
    | Logical.Scan _ -> Logical.eval cat t
    | Logical.Join _ ->
      let inputs, conds = join_inputs t in
      join_all (List.map (eval cat) inputs) conds
    | Logical.Filter { input = Logical.Join _ as j; pred } ->
      let inputs, conds = join_inputs j in
      join_all (List.map (eval cat) inputs) (conds @ Expr.conjuncts pred)
    | Logical.Filter { input; pred } -> filter (eval cat input) [ pred ]
    | Logical.Group { input; keys; aggs; having; _ } ->
      group (eval cat input) (Logical.schema t) ~keys ~aggs ~having
    | Logical.Project { input; cols } ->
      let rel = eval cat input in
      let fns = List.map (fun (e, _) -> Expr.compile (Relation.schema rel) e) cols in
      Relation.map_tuples
        (Schema.of_columns (List.map snd cols))
        (fun tup -> Array.of_list (List.map (fun f -> f tup) fns))
        rel

(* ORDER BY and LIMIT are not applied: replies are compared as bags, and no
   workload statement has a LIMIT. *)
let reference cat sql = eval cat (Block.query_logical cat (Binder.bind_sql cat sql))

(* The workload's catalog, freshly loaded from the data seed, with
   [inserts] applied: what a durable server should hold after
   acknowledging them.  It is a load of its own because an insert widens
   the column ranges the statement streams draw constants from, and the
   traced pass must replay the statements the served run sent. *)
let after_inserts (w : Streams.t) inserts =
  let cat = Streams.load w.Streams.db ~scale:w.Streams.scale in
  List.iter
    (fun sql ->
      match Parser.parse_script sql with
      | [ Sql_ast.S_insert { it_table; it_rows } ] ->
        ignore (Catalog.insert cat ~table:it_table (Binder.bind_insert cat ~table:it_table it_rows))
      | _ -> invalid_arg ("Oracle.after_inserts: not an INSERT: " ^ sql))
    inserts;
  cat

(* ---- comparing a reply body ([Relation.pp] text) with a reference ---- *)

let cells line = List.map String.trim (String.split_on_char '|' line)

(* Data rows of a rendered relation: everything between the dashed rule
   under the header and the "(N rows)" footer. *)
let body_rows body =
  match String.split_on_char '\n' body with
  | _header :: _rule :: rest ->
    List.filter_map
      (fun line ->
        if line = "" || (String.length line > 0 && line.[0] = '(') then None
        else Some (cells line))
      rest
  | _ -> []

let relation_rows rel =
  List.map
    (fun tup -> Array.to_list (Array.map Value.to_string tup))
    (Relation.tuples rel)

let cell_equal a b =
  String.equal a b
  ||
  match (float_of_string_opt a, float_of_string_opt b) with
  | Some x, Some y ->
    Float.abs (x -. y) <= 1e-9 *. Float.max 1. (Float.max (Float.abs x) (Float.abs y))
  | _ -> false

let row_equal a b = List.length a = List.length b && List.for_all2 cell_equal a b

(* [Ok ()] when the reply has the reference's row count and the same
   multiset of whitespace-normalised rows. *)
let check ~rows ~body reference =
  let want = List.sort compare (relation_rows reference) in
  let got = List.sort compare (body_rows body) in
  let n = List.length want in
  if rows <> n then Error (Printf.sprintf "reply has %d rows, reference %d" rows n)
  else if List.length got <> n then
    Error (Printf.sprintf "reply body holds %d rows, header says %d" (List.length got) n)
  else
    match List.find_opt (fun (a, b) -> not (row_equal a b)) (List.combine got want) with
    | None -> Ok ()
    | Some (a, b) ->
      Error
        (Printf.sprintf "row [%s] differs from reference [%s]" (String.concat "; " a)
           (String.concat "; " b))
