(* Executor tests: every physical operator is checked against the reference
   interpreter on randomized data, including the spill paths (Grace hash
   join, multi-run external sort). *)

let build_catalog_frames ~frames seed nr ns =
  let rng = Rng.create ~seed in
  let cat = Catalog.create ~frames () in
  let r_rows =
    List.init nr (fun i ->
        Tuple.make
          [ Value.Int i; Value.Int (Rng.int rng 10); Value.Int (Rng.in_range rng 0 100) ])
  in
  ignore
    (Catalog.add_table cat ~name:"r"
       ~columns:[ ("k", Datatype.Int); ("g", Datatype.Int); ("v", Datatype.Int) ]
       ~pk:[ "k" ] ~index:[ "g"; "v" ] r_rows);
  let s_rows =
    List.init ns (fun i ->
        Tuple.make [ Value.Int i; Value.Int (Rng.int rng 10); Value.Int (Rng.in_range rng 0 100) ])
  in
  ignore
    (Catalog.add_table cat ~name:"s"
       ~columns:[ ("k", Datatype.Int); ("g", Datatype.Int); ("w", Datatype.Int) ]
       ~pk:[ "k" ] ~index:[ "g" ] s_rows);
  cat

let build_catalog seed nr ns = build_catalog_frames ~frames:512 seed nr ns

let c ~q n = Schema.column ~qual:q n Datatype.Int

let exec ?(work_mem = 32) cat plan =
  Executor.run (Exec_ctx.create ~work_mem cat) plan

let join_cond = [ Expr.Cmp (Expr.Eq, Expr.Col (c ~q:"a" "g"), Expr.Col (c ~q:"b" "g")) ]

let reference_join cat =
  Logical.eval cat
    (Logical.Join
       { left = Logical.scan cat ~alias:"a" "r";
         right = Logical.scan cat ~alias:"b" "s"; cond = join_cond })

let scan_a = Physical.Seq_scan { alias = "a"; table = "r"; filter = [] }
let scan_b = Physical.Seq_scan { alias = "b"; table = "s"; filter = [] }

let check_join name cat plan =
  let expected = reference_join cat in
  let got = exec cat plan in
  Alcotest.(check bool) name true (Relation.multiset_equal expected got)

let prop_join_methods =
  QCheck.Test.make ~name:"all join algorithms agree with the reference" ~count:25
    (QCheck.triple (QCheck.int_range 0 10_000) (QCheck.int_range 1 400) (QCheck.int_range 1 400))
    (fun (seed, nr, ns) ->
      let cat = build_catalog seed nr ns in
      let expected = reference_join cat in
      let keys = [ (c ~q:"a" "g", c ~q:"b" "g") ] in
      let plans =
        [
          Physical.Block_nl_join { left = scan_a; right = scan_b; cond = join_cond };
          Physical.Hash_join
            { left = scan_a; right = scan_b; keys; cond = []; build_side = `Right };
          Physical.Hash_join
            { left = scan_a; right = scan_b; keys; cond = []; build_side = `Left };
          Physical.Merge_join
            {
              left = Physical.Sort { input = scan_a; cols = [ c ~q:"a" "g" ] ; desc = [] };
              right = Physical.Sort { input = scan_b; cols = [ c ~q:"b" "g" ] ; desc = [] };
              keys;
              cond = [];
            };
          Physical.Index_nl_join
            { left = scan_a; alias = "b"; table = "s"; column = "g";
              outer_key = c ~q:"a" "g"; cond = [] };
        ]
      in
      List.for_all (fun p -> Relation.multiset_equal expected (exec cat p)) plans)

let grace_hash_spill () =
  (* Force the Grace path: the build side is far larger than work_mem, and
     the buffer pool is small enough that spilled partitions actually get
     evicted (with a huge pool, temp pages legitimately never reach disk). *)
  let cat = build_catalog_frames ~frames:16 5 4000 3000 in
  let plan =
    Physical.Hash_join
      { left = scan_a; right = scan_b;
        keys = [ (c ~q:"a" "g", c ~q:"b" "g") ]; cond = []; build_side = `Right }
  in
  let ctx = Exec_ctx.create ~work_mem:3 cat in
  let st = Exec_ctx.storage ctx in
  Buffer_pool.clear (Storage.pool st);
  Storage.reset_io st;
  let got = Biter.to_relation (Executor.open_batch ctx plan) in
  let io = Storage.io_stats st in
  Exec_ctx.cleanup ctx;
  Alcotest.(check bool) "spill wrote temp pages" true (io.Buffer_pool.writes > 0);
  Alcotest.(check bool) "grace result correct" true
    (Relation.multiset_equal (reference_join cat) got)

let bnl_with_materialized_inner () =
  let cat = build_catalog 6 500 300 in
  (* inner = filtered scan wrapped in Materialize (a non-rescannable shape) *)
  let inner =
    Physical.Materialize
      { input = Physical.Filter { input = scan_b; pred = [ Expr.Cmp (Expr.Lt, Expr.Col (c ~q:"b" "w"), Expr.int 50) ] } }
  in
  let plan = Physical.Block_nl_join { left = scan_a; right = inner; cond = join_cond } in
  let expected =
    Logical.eval cat
      (Logical.Join
         {
           left = Logical.scan cat ~alias:"a" "r";
           right =
             Logical.Filter
               {
                 input = Logical.scan cat ~alias:"b" "s";
                 pred = Expr.Cmp (Expr.Lt, Expr.Col (c ~q:"b" "w"), Expr.int 50);
               };
           cond = join_cond;
         })
  in
  Alcotest.(check bool) "bnl+materialize" true
    (Relation.multiset_equal expected (exec ~work_mem:4 cat plan))

let prop_sort =
  QCheck.Test.make ~name:"external sort: sorted permutation even when spilling"
    ~count:20
    (QCheck.pair (QCheck.int_range 0 10_000) (QCheck.int_range 3 6))
    (fun (seed, work_mem) ->
      let cat = build_catalog seed 3000 10 in
      let plan = Physical.Sort { input = scan_a; cols = [ c ~q:"a" "v"; c ~q:"a" "k" ] ; desc = [] } in
      let got = exec ~work_mem cat plan in
      let base = exec cat scan_a in
      let tuples = Relation.tuples got in
      let rec sorted = function
        | a :: (b :: _ as rest) ->
          Tuple.compare_at [| 2; 0 |] a b <= 0 && sorted rest
        | _ -> true
      in
      sorted tuples && Relation.multiset_equal base got)

let group_plans cat =
  let keys = [ c ~q:"a" "g" ] in
  let aggs =
    [
      Aggregate.make Aggregate.Sum ~arg:(Expr.Col (c ~q:"a" "v")) "s";
      Aggregate.make Aggregate.Avg ~arg:(Expr.Col (c ~q:"a" "v")) "m";
      Aggregate.make Aggregate.Count_star "n";
    ]
  in
  let having = [ Expr.Cmp (Expr.Gt, Expr.Col (Schema.column ~qual:"x" "n" Datatype.Int), Expr.int 2) ] in
  let logical =
    Logical.Group
      { input = Logical.scan cat ~alias:"a" "r"; agg_qual = "x"; keys; aggs; having }
  in
  let hash = Physical.Hash_group { input = scan_a; agg_qual = "x"; keys; aggs; having } in
  let sorted =
    Physical.Sort_group
      { input = Physical.Sort { input = scan_a; cols = keys ; desc = [] }; agg_qual = "x"; keys;
        aggs; having }
  in
  (logical, hash, sorted)

let prop_grouping =
  QCheck.Test.make ~name:"hash and sort aggregation agree with the reference"
    ~count:25 (QCheck.pair (QCheck.int_range 0 10_000) (QCheck.int_range 1 2000))
    (fun (seed, nr) ->
      let cat = build_catalog seed nr 5 in
      let logical, hash, sorted = group_plans cat in
      let expected = Logical.eval cat logical in
      Relation.multiset_equal expected (exec cat hash)
      && Relation.multiset_equal expected (exec ~work_mem:3 cat sorted))

let index_scan_ranges () =
  let cat = build_catalog 17 2000 5 in
  let check lo hi =
    let plan =
      Physical.Index_scan
        { alias = "a"; table = "r"; column = "v";
          lo = Option.map (fun v -> (Value.Int v, true)) lo;
          hi = Option.map (fun v -> (Value.Int v, false)) hi;
          filter = [] }
    in
    let got = exec cat plan in
    let pred t =
      let v = match Tuple.get t 2 with Value.Int v -> v | _ -> assert false in
      (match lo with None -> true | Some l -> v >= l)
      && match hi with None -> true | Some h -> v < h
    in
    let expected = Relation.filter pred (exec cat scan_a) in
    Alcotest.(check bool)
      (Printf.sprintf "range [%s,%s)"
         (match lo with None -> "-inf" | Some v -> string_of_int v)
         (match hi with None -> "+inf" | Some v -> string_of_int v))
      true
      (Relation.multiset_equal expected got)
  in
  check (Some 20) (Some 60);
  check None (Some 30);
  check (Some 90) None;
  check (Some 60) (Some 60);
  check None None

let sorted_output_of_index_scan () =
  let cat = build_catalog 18 800 5 in
  let plan =
    Physical.Index_scan
      { alias = "a"; table = "r"; column = "v"; lo = None; hi = None; filter = [] }
  in
  let rel = exec cat plan in
  let rec is_sorted = function
    | a :: (b :: _ as rest) -> Value.compare (Tuple.get a 2) (Tuple.get b 2) <= 0 && is_sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "index scan emits in key order" true (is_sorted (Relation.tuples rel))

let projection_and_filter () =
  let cat = build_catalog 19 100 5 in
  let plan =
    Physical.Project
      {
        input =
          Physical.Filter
            { input = scan_a; pred = [ Expr.Cmp (Expr.Ge, Expr.Col (c ~q:"a" "v"), Expr.int 50) ] };
        cols =
          [
            (Expr.Binop (Expr.Mul, Expr.Col (c ~q:"a" "v"), Expr.int 2),
             Schema.column "v2" Datatype.Int);
          ];
      }
  in
  let rel = exec cat plan in
  Relation.iter
    (fun t ->
      match Tuple.get t 0 with
      | Value.Int v when v >= 100 && v mod 2 = 0 -> ()
      | v -> Alcotest.failf "bad projected value %s" (Value.to_string v))
    rel

let tests =
  [
    QCheck_alcotest.to_alcotest prop_join_methods;
    Alcotest.test_case "grace hash join spills and is correct" `Quick grace_hash_spill;
    Alcotest.test_case "BNL with materialized inner" `Quick bnl_with_materialized_inner;
    QCheck_alcotest.to_alcotest prop_sort;
    QCheck_alcotest.to_alcotest prop_grouping;
    Alcotest.test_case "index scan range semantics" `Quick index_scan_ranges;
    Alcotest.test_case "index scan ordering" `Quick sorted_output_of_index_scan;
    Alcotest.test_case "filter + project pipeline" `Quick projection_and_filter;
    Alcotest.test_case "bnl join small" `Quick (fun () ->
        check_join "bnl" (build_catalog 3 50 40)
          (Physical.Block_nl_join { left = scan_a; right = scan_b; cond = join_cond }));
  ]
