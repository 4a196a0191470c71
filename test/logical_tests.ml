(* Reference-interpreter tests: small hand-checkable trees. *)

let mini_catalog () =
  let cat = Catalog.create ~frames:32 () in
  ignore
    (Catalog.add_table cat ~name:"r"
       ~columns:[ ("k", Datatype.Int); ("g", Datatype.Int); ("v", Datatype.Int) ]
       ~pk:[ "k" ]
       [
         Tuple.make [ Value.Int 0; Value.Int 1; Value.Int 10 ];
         Tuple.make [ Value.Int 1; Value.Int 1; Value.Int 20 ];
         Tuple.make [ Value.Int 2; Value.Int 2; Value.Int 30 ];
         Tuple.make [ Value.Int 3; Value.Int 2; Value.Int 40 ];
         Tuple.make [ Value.Int 4; Value.Int 3; Value.Int 50 ];
       ]);
  ignore
    (Catalog.add_table cat ~name:"s"
       ~columns:[ ("g", Datatype.Int); ("w", Datatype.Int) ]
       ~pk:[ "g" ]
       [
         Tuple.make [ Value.Int 1; Value.Int 100 ];
         Tuple.make [ Value.Int 2; Value.Int 200 ];
         Tuple.make [ Value.Int 9; Value.Int 900 ];
       ]);
  cat

let c ~q n = Schema.column ~qual:q n Datatype.Int

let scan_filter () =
  let cat = mini_catalog () in
  let t =
    Logical.Filter
      {
        input = Logical.scan cat ~alias:"a" "r";
        pred = Expr.Cmp (Expr.Ge, Expr.Col (c ~q:"a" "v"), Expr.int 30);
      }
  in
  Alcotest.(check int) "filtered rows" 3 (Relation.cardinality (Logical.eval cat t))

let join_eval () =
  let cat = mini_catalog () in
  let t =
    Logical.Join
      {
        left = Logical.scan cat ~alias:"a" "r";
        right = Logical.scan cat ~alias:"b" "s";
        cond = [ Expr.Cmp (Expr.Eq, Expr.Col (c ~q:"a" "g"), Expr.Col (c ~q:"b" "g")) ];
      }
  in
  let rel = Logical.eval cat t in
  Alcotest.(check int) "join rows" 4 (Relation.cardinality rel);
  Alcotest.(check int) "join arity" 5 (Schema.arity (Relation.schema rel));
  (* cross join *)
  let cross =
    Logical.Join
      { left = Logical.scan cat ~alias:"a" "r";
        right = Logical.scan cat ~alias:"b" "s"; cond = [] }
  in
  Alcotest.(check int) "cross rows" 15 (Relation.cardinality (Logical.eval cat cross))

let group_eval () =
  let cat = mini_catalog () in
  let t =
    Logical.Group
      {
        input = Logical.scan cat ~alias:"a" "r";
        agg_qual = "x";
        keys = [ c ~q:"a" "g" ];
        aggs =
          [
            Aggregate.make Aggregate.Sum ~arg:(Expr.Col (c ~q:"a" "v")) "s";
            Aggregate.make Aggregate.Count_star "n";
          ];
        having = [];
      }
  in
  let rel = Relation.sort_by [| 0 |] (Logical.eval cat t) in
  Alcotest.(check int) "groups" 3 (Relation.cardinality rel);
  Alcotest.(check string) "group row" "[1; 30; 2]"
    (Tuple.to_string (List.hd (Relation.tuples rel)));
  (* having *)
  let with_having =
    Logical.Group
      {
        input = Logical.scan cat ~alias:"a" "r";
        agg_qual = "x";
        keys = [ c ~q:"a" "g" ];
        aggs = [ Aggregate.make Aggregate.Sum ~arg:(Expr.Col (c ~q:"a" "v")) "s" ];
        having = [ Expr.Cmp (Expr.Gt, Expr.Col (c ~q:"x" "s"), Expr.int 40) ];
      }
  in
  Alcotest.(check int) "having filters groups" 2
    (Relation.cardinality (Logical.eval cat with_having))

let scalar_group_empty_input () =
  let cat = mini_catalog () in
  let t =
    Logical.Group
      {
        input =
          Logical.Filter
            {
              input = Logical.scan cat ~alias:"a" "r";
              pred = Expr.Cmp (Expr.Gt, Expr.Col (c ~q:"a" "v"), Expr.int 10_000);
            };
        agg_qual = "x";
        keys = [];
        aggs = [ Aggregate.make Aggregate.Count_star "n" ];
        having = [];
      }
  in
  (* Documented deviation from SQL: empty input yields zero rows. *)
  Alcotest.(check int) "empty scalar group" 0 (Relation.cardinality (Logical.eval cat t))

let project_eval () =
  let cat = mini_catalog () in
  let t =
    Logical.Project
      {
        input = Logical.scan cat ~alias:"a" "r";
        cols =
          [
            ( Expr.Binop (Expr.Add, Expr.Col (c ~q:"a" "v"), Expr.int 1),
              Schema.column "v1" Datatype.Int );
          ];
      }
  in
  let rel = Logical.eval cat t in
  Alcotest.(check string) "computed column" "[11]"
    (Tuple.to_string (List.hd (Relation.tuples rel)))

let bad_group_key () =
  let cat = mini_catalog () in
  let t =
    Logical.Group
      {
        input = Logical.scan cat ~alias:"a" "r";
        agg_qual = "x";
        keys = [ c ~q:"zz" "nope" ];
        aggs = [ Aggregate.make Aggregate.Count_star "n" ];
        having = [];
      }
  in
  match Logical.schema t with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument for bad grouping column"

(* ---- hash-join reference vs the nested-loop interpreter it replaced ----

   [nl_eval] is the reference interpreter as it was before joins hashed:
   nested loops in FROM order, filters applied above the whole product. *)

let rec nl_eval cat = function
  | Logical.Scan s ->
    let tbl = Catalog.table_exn cat s.table in
    Relation.create s.schema (Relation.tuples (Heap_file.to_relation tbl.Catalog.heap))
  | Logical.Filter f ->
    let rel = nl_eval cat f.input in
    Relation.filter (Expr.compile_pred (Relation.schema rel) f.pred) rel
  | Logical.Join j ->
    let lrel = nl_eval cat j.left and rrel = nl_eval cat j.right in
    let out = Schema.append (Relation.schema lrel) (Relation.schema rrel) in
    let keep =
      match Expr.conjoin j.cond with
      | None -> fun _ -> true
      | Some p -> Expr.compile_pred out p
    in
    let rows =
      Relation.fold
        (fun acc lt ->
          Relation.fold
            (fun acc rt ->
              let tup = Tuple.concat lt rt in
              if keep tup then tup :: acc else acc)
            acc rrel)
        [] lrel
    in
    Relation.create out (List.rev rows)
  | Logical.Group g as t ->
    let rel = nl_eval cat g.input in
    let in_schema = Relation.schema rel in
    let key_idx = Array.of_list (List.map (Expr.resolve_column in_schema) g.keys) in
    let args =
      List.map
        (fun (a : Aggregate.t) ->
          match a.Aggregate.arg with
          | None -> fun _ -> None
          | Some e ->
            let f = Expr.compile in_schema e in
            fun tup -> Some (f tup))
        g.aggs
    in
    let tbl = Hashtbl.create 64 and order = ref [] in
    Relation.iter
      (fun tup ->
        let k = Tuple.project_arr tup key_idx in
        let st =
          match Hashtbl.find_opt tbl k with
          | Some st -> st
          | None ->
            order := k :: !order;
            List.map (fun (a : Aggregate.t) -> Aggregate.init a.Aggregate.func) g.aggs
        in
        Hashtbl.replace tbl k (List.map2 (fun s f -> Aggregate.step s (f tup)) st args))
      rel;
    let out = Logical.schema t in
    let rows =
      List.rev_map
        (fun k ->
          Tuple.concat k (Array.of_list (List.map Aggregate.finish (Hashtbl.find tbl k))))
        !order
    in
    let grouped = Relation.create out rows in
    (match Expr.conjoin g.having with
     | None -> grouped
     | Some p -> Relation.filter (Expr.compile_pred out p) grouped)
  | Logical.Project p ->
    let rel = nl_eval cat p.input in
    let fns = List.map (fun (e, _) -> Expr.compile (Relation.schema rel) e) p.cols in
    Relation.map_tuples
      (Schema.of_columns (List.map snd p.cols))
      (fun tup -> Array.of_list (List.map (fun f -> f tup) fns))
      rel

let diff_catalogs =
  lazy
    [
      Tpcd.load
        ~params:
          { Tpcd.default_params with customers = 16; orders_per_customer = 2;
            lines_per_order = 2; parts = 10; suppliers = 4 }
        ();
      Star.load
        ~params:
          { Star.default_params with days = 5; products = 8; stores = 3;
            rows_per_day = 10 }
        ();
      Chain.load ~rows:30 ~n:3 ();
    ]

let rec subtrees t =
  t
  :: (match t with
     | Logical.Scan _ -> []
     | Logical.Filter { input; _ } | Logical.Group { input; _ }
     | Logical.Project { input; _ } ->
       subtrees input
     | Logical.Join { left; right; _ } -> subtrees left @ subtrees right)

(* Every subtree is checked, not just the query's root: a root Group or
   Project resolves columns by name, so a join chain's column order only
   shows below it. *)
let prop_hash_join_equals_nested_loop =
  QCheck.Test.make ~name:"hash-join eval = nested-loop eval (bag and schema)"
    ~count:200 QCheck.small_nat
    (fun seed ->
      let cat = List.nth (Lazy.force diff_catalogs) (seed mod 3) in
      let rng = Rng.create ~seed:(seed * 131) in
      let complexity = if seed mod 2 = 0 then `Rich else `Simple in
      let q = Query_gen.generate ~complexity rng cat in
      List.for_all
        (fun t ->
          let got = Logical.eval cat t and want = nl_eval cat t in
          if Relation.schema got <> Logical.schema t then
            QCheck.Test.fail_reportf "seed %d: schema differs from Logical.schema@.%a"
              seed Logical.pp t
          else if not (Relation.multiset_equal got want) then
            QCheck.Test.fail_reportf "seed %d: bags differ@.%a" seed Logical.pp t
          else true)
        (subtrees (Block.query_logical cat q)))

let tests =
  [
    Alcotest.test_case "scan + filter" `Quick scan_filter;
    Alcotest.test_case "join (equi and cross)" `Quick join_eval;
    Alcotest.test_case "group-by with aggregates and having" `Quick group_eval;
    Alcotest.test_case "scalar aggregate over empty input" `Quick scalar_group_empty_input;
    Alcotest.test_case "project computes expressions" `Quick project_eval;
    Alcotest.test_case "bad grouping column rejected" `Quick bad_group_key;
    QCheck_alcotest.to_alcotest prop_hash_join_equals_nested_loop;
  ]
