(* The batched execution engine: batch/selection-vector primitives, the
   heap-based k-way merge, Limit's eager close, page IO pinned for the
   operators that walk their inputs row by row, and the differential
   property that the executor agrees with the reference interpreter on
   random optimized plans. *)

let int_schema = Schema.of_columns [ Schema.column ~qual:"t" "x" Datatype.Int ]

let mk_tuples l = List.map (fun i -> Tuple.make [ Value.Int i ]) l

let batch_ints b =
  List.map
    (fun t -> match Tuple.get t 0 with Value.Int i -> i | _ -> assert false)
    (Batch.to_list b)

(* ---- Batch / Biter primitives ---- *)

let batch_basics () =
  let rows = Array.of_list (mk_tuples [ 0; 1; 2; 3; 4; 5; 6; 7 ]) in
  let seg = Batch.of_segment int_schema rows ~lo:2 ~len:4 in
  Alcotest.(check int) "segment live" 4 (Batch.live seg);
  Alcotest.(check (list int)) "segment window" [ 2; 3; 4; 5 ] (batch_ints seg);
  let even =
    Batch.select
      (fun t -> match Tuple.get t 0 with Value.Int i -> i mod 2 = 0 | _ -> false)
      seg
  in
  Alcotest.(check (list int)) "select refines window" [ 2; 4 ] (batch_ints even);
  Alcotest.(check (list int)) "take after select" [ 2 ]
    (batch_ints (Batch.take 1 even));
  Alcotest.(check (list int)) "take on unselected" [ 2; 3 ]
    (batch_ints (Batch.take 2 seg));
  let doubled =
    Batch.map int_schema
      (fun t -> Tuple.make [ Value.mul (Tuple.get t 0) (Value.Int 2) ])
      even
  in
  Alcotest.(check (list int)) "map compacts" [ 4; 8 ] (batch_ints doubled);
  Alcotest.(check int) "fold counts live" 2
    (Batch.fold (fun acc _ -> acc + 1) 0 even)

(* The vectorized int-compare kernel must agree with the generic compiled
   predicate on every operator and every selection-vector state. *)
let prop_select_int_cmp =
  QCheck.Test.make ~name:"select_int_cmp = select (compile_pred)" ~count:200
    QCheck.(
      triple
        (list_of_size (Gen.int_range 0 40) (int_range (-8) 8))
        (int_range (-8) 8) (int_range 0 5))
    (fun (xs, k, opi) ->
      let op =
        List.nth [ Expr.Eq; Expr.Ne; Expr.Lt; Expr.Le; Expr.Gt; Expr.Ge ] opi
      in
      let col = Schema.column ~qual:"t" "x" Datatype.Int in
      let pred = Expr.Cmp (op, Expr.Col col, Expr.Const (Value.Int k)) in
      let generic = Expr.compile_pred int_schema pred in
      let check b =
        batch_ints (Batch.select_int_cmp ~op ~idx:0 k b)
        = batch_ints (Batch.select generic b)
      in
      let b = Batch.of_list int_schema (mk_tuples xs) in
      (* plain, after a generic select (selection vector present), and as an
         offset segment *)
      check b
      && check (Batch.select (fun _ -> true) b)
      && check
           (let rows = Array.of_list (mk_tuples (0 :: xs)) in
            Batch.of_segment int_schema rows ~lo:1
              ~len:(Array.length rows - 1)))

let biter_chunking () =
  let tuples = mk_tuples (List.init 2500 (fun i -> i)) in
  let chunks bit =
    let sizes = ref [] in
    Biter.iter (fun b -> sizes := Batch.live b :: !sizes) bit;
    List.rev !sizes
  in
  Alcotest.(check (list int)) "of_rows chunking" [ 1024; 1024; 452 ]
    (chunks (Biter.of_rows int_schema (Array.of_list tuples)));
  let forced = ref 0 in
  let seq = Seq.map (fun t -> incr forced; t) (List.to_seq tuples) in
  let bit = Biter.of_seq int_schema seq in
  ignore (bit.Biter.next_batch ());
  Alcotest.(check int) "of_seq forces one batch's worth" Batch.default_rows !forced;
  Alcotest.(check (list int)) "of_seq chunking" [ 1024; 452 ] (chunks bit);
  Alcotest.(check bool) "of_seq preserves order" true
    (List.for_all2 Tuple.equal tuples
       (Biter.to_list (Biter.of_seq int_schema (List.to_seq tuples))))

(* ---- heap-based k-way merge ---- *)

let merge_64_runs () =
  (* 64 sorted runs with interleaved and duplicated keys; the heap merge
     must produce a fully sorted result containing every input row. *)
  let nruns = 64 in
  let runs =
    List.init nruns (fun r ->
        List.init 40 (fun i -> (i * nruns) + ((r * 13) mod nruns)))
  in
  let cmp a b = Value.compare (Tuple.get a 0) (Tuple.get b 0) in
  let merged =
    List.map
      (fun t -> match Tuple.get t 0 with Value.Int i -> i | _ -> assert false)
      (List.of_seq
         (Xsort.merge cmp (List.map (fun run -> List.to_seq (mk_tuples run)) runs)))
  in
  Alcotest.(check int) "all rows survive" (64 * 40) (List.length merged);
  Alcotest.(check bool) "fully sorted" true
    (List.for_all2 ( <= ) merged (List.tl merged @ [ max_int ]));
  Alcotest.(check (list int)) "same multiset" (List.sort compare (List.concat runs))
    (List.sort compare merged)

let merge_stability () =
  (* Equal keys must come out in run-index order (ties break on source). *)
  let run r keys =
    List.to_seq (List.map (fun k -> Tuple.make [ Value.Int k; Value.Int r ]) keys)
  in
  let cmp a b = Value.compare (Tuple.get a 0) (Tuple.get b 0) in
  let merged =
    List.of_seq
      (Xsort.merge cmp [ run 0 [ 1; 5; 9 ]; run 1 [ 5; 5; 7 ]; run 2 [ 0; 5 ] ])
  in
  let pairs =
    List.map
      (fun t ->
        match (Tuple.get t 0, Tuple.get t 1) with
        | Value.Int k, Value.Int r -> (k, r)
        | _ -> assert false)
      merged
  in
  Alcotest.(check (list (pair int int)))
    "sorted, equal keys in run order"
    [ (0, 2); (1, 0); (5, 0); (5, 1); (5, 1); (5, 2); (7, 1); (9, 0) ]
    pairs

(* ---- Limit closes eagerly and close is idempotent ---- *)

let limit_eager_close () =
  let cat = Catalog.create ~frames:256 () in
  ignore
    (Catalog.add_table cat ~name:"t"
       ~columns:[ ("x", Datatype.Int) ]
       ~pk:[ "x" ]
       (mk_tuples (List.init 500 (fun i -> i))));
  let plan =
    Physical.Limit
      {
        input =
          Physical.Materialize
            { input = Physical.Seq_scan { alias = "a"; table = "t"; filter = [] } };
        count = 3;
      }
  in
  let rel = Executor.run (Exec_ctx.create cat) plan in
  Alcotest.(check int) "limit rows" 3 (Relation.cardinality rel);
  (* Pull through the iterator by hand: exhausting the count closes the
     input (dropping the Materialize temp) and the outer close must then be
     a no-op rather than a double drop. *)
  let ctx = Exec_ctx.create cat in
  let bit = Executor.open_batch ctx plan in
  let rec bdrain n =
    match bit.Biter.next_batch () with
    | None -> n
    | Some b -> bdrain (n + Batch.live b)
  in
  Alcotest.(check int) "batch iter yields count" 3 (bdrain 0);
  Alcotest.(check int) "input closed at the count" 0 (Exec_ctx.live_temps ctx);
  bit.Biter.close ();
  bit.Biter.close ();
  Exec_ctx.cleanup ctx

(* ---- joins emit bounded batches ----

   A block nested-loop cross product pairs every inner row with a block of
   (work_mem - 1) pages of outer rows, an index nested-loop join pairs
   every outer row with all its matches, a merge join pairs every left row
   with its key's right group, and a hash join pairs every probe row with
   its key's build rows; none may hand out more than [Batch.default_rows]
   rows at once.  The in-memory hash join holds no temp while it streams; the
   spilling one holds its unread partitions.  Closing mid-stream drops the
   BNL's spooled inner, the merge join's sort runs and the grace join's
   partitions. *)

let joins_bounded_batches () =
  let cat = Tpcd.load () in
  let col q n = Schema.column ~qual:q n Datatype.Int in
  let scan alias table = Physical.Seq_scan { alias; table; filter = [] } in
  let skewed =
    Physical.Hash_join
      { left = scan "c" "customer";
        right =
          Physical.Seq_scan
            { alias = "d"; table = "customer";
              filter = [ Expr.Cmp (Expr.Lt, Expr.Col (col "d" "ck"), Expr.int 200) ] };
        keys = [ (col "c" "nation", col "d" "nation") ]; cond = [];
        build_side = `Right }
  in
  let spilling =
    Physical.Hash_join
      { left = scan "o" "orders"; right = scan "l" "lineitem";
        keys = [ (col "o" "ok", col "l" "ok") ]; cond = [];
        build_side = `Left }
  in
  let plans =
    [
      ( "block nested-loop cross product",
        Physical.Block_nl_join
          { left = scan "o" "orders";
            right = Physical.Materialize { input = scan "l" "lineitem" };
            cond = [] } );
      ( "index nested-loop join",
        Physical.Index_nl_join
          { left = scan "o" "orders"; alias = "l"; table = "lineitem";
            column = "ok"; outer_key = col "o" "ok"; cond = [] } );
      ( "merge join, five rows per key on each side",
        let by_ck alias =
          Physical.Sort { input = scan alias "orders"; cols = [ col alias "ck" ]; desc = [] }
        in
        Physical.Merge_join
          { left = by_ck "a"; right = by_ck "b";
            keys = [ (col "a" "ck", col "b" "ck") ]; cond = [] } );
      ("in-memory hash join, ~20 build rows per key", skewed);
      ("spilling hash join", spilling);
    ]
  in
  List.iter
    (fun (name, plan) ->
      let ctx = Exec_ctx.create ~work_mem:4 cat in
      let bit = Executor.open_batch ctx plan in
      for i = 1 to 4 do
        match bit.Biter.next_batch () with
        | None -> Alcotest.failf "%s: ended after %d batches" name (i - 1)
        | Some b ->
          Alcotest.(check int)
            (Printf.sprintf "%s: batch %d is full, not larger" name i)
            Batch.default_rows (Batch.live b)
      done;
      (match plan with
       | Physical.Hash_join _ ->
         Alcotest.(check bool) (name ^ ": temps held mid-stream")
           (String.starts_with ~prefix:"spilling" name)
           (Exec_ctx.live_temps ctx > 0)
       | _ -> ());
      bit.Biter.close ();
      Alcotest.(check int) (name ^ ": no temps left") 0 (Exec_ctx.live_temps ctx);
      Exec_ctx.cleanup ctx)
    plans

(* ---- page IO pinned for the joins and group that walk sorted or
   rescanned inputs ----

   One plan per operator, at work_mem 4 over the TPC-D catalog: the outer
   of the block nested-loop join spans several blocks against a spooled
   inner, and the sorts feeding the index nested-loop join, the merge join
   and the sort-group spill to merged runs.  The pinned reads and writes
   are those the former row-at-a-time executor measured on these plans.
   On the default 256-frame pool nothing is evicted, so they pin the set of
   pages touched.  On a 16-frame pool the sort-group evicts and writes
   back its spilled runs, pinning the spill and merge schedule, and a
   block nested-loop join rescans an inner larger than the pool once per
   block, pinning the block schedule.  The 16-frame index nested-loop and
   merge joins are pinned at the batch executor's own values: under
   eviction pressure batches change the LRU order of their inputs' page
   touches, so these differ from the row executor's by a few pages
   (DESIGN.md, "IO identity"), and a further change must show up here. *)

let pinned_io () =
  let col q n = Schema.column ~qual:q n Datatype.Int in
  let scan alias table = Physical.Seq_scan { alias; table; filter = [] } in
  let sort input cols = Physical.Sort { input; cols; desc = [] } in
  let sort_group =
    Physical.Sort_group
      {
        input = sort (scan "l" "lineitem") [ col "l" "pk" ];
        agg_qual = "g";
        keys = [ col "l" "pk" ];
        aggs =
          [ Aggregate.make Aggregate.Sum ~arg:(Expr.Col (col "l" "qty")) "q";
            Aggregate.make Aggregate.Count_star "n" ];
        having = [];
      }
  in
  let bnl =
    Physical.Block_nl_join
      {
        left = scan "o" "orders";
        right =
          Physical.Materialize
            {
              input =
                Physical.Seq_scan
                  { alias = "c"; table = "customer";
                    filter =
                      [ Expr.Cmp (Expr.Lt, Expr.Col (col "c" "acctbal"), Expr.int 5000) ] };
            };
        cond = [ Expr.Cmp (Expr.Eq, Expr.Col (col "o" "ck"), Expr.Col (col "c" "ck")) ];
      }
  in
  let index_nl =
    Physical.Index_nl_join
      { left = sort (scan "o" "orders") [ col "o" "totalprice" ]; alias = "l";
        table = "lineitem"; column = "ok"; outer_key = col "o" "ok"; cond = [] }
  in
  let merge =
    Physical.Merge_join
      {
        left = sort (scan "l" "lineitem") [ col "l" "ok" ];
        right = sort (scan "o" "orders") [ col "o" "ok" ];
        keys = [ (col "l" "ok", col "o" "ok") ];
        cond = [];
      }
  in
  let plans =
    [
      ("block nested-loop join", 256, bnl, (713, 14, 0));
      ("index nested-loop join", 256, index_nl, (6000, 94, 0));
      ("merge join", 256, merge, (6000, 82, 0));
      ("sort-group", 256, sort_group, (200, 71, 0));
      ("block nested-loop join", 16, bnl, (713, 14, 0));
      ("index nested-loop join", 16, index_nl, (6000, 2047, 11));
      ("merge join", 16, merge, (6000, 303, 224));
      ("sort-group", 16, sort_group, (200, 284, 213));
      ( "block nested-loop join, rescanned inner",
        16,
        Physical.Block_nl_join
          {
            left = scan "o" "orders";
            right =
              Physical.Seq_scan
                { alias = "l"; table = "lineitem";
                  filter = [ Expr.Cmp (Expr.Lt, Expr.Col (col "l" "qty"), Expr.int 5) ] };
            cond = [ Expr.Cmp (Expr.Eq, Expr.Col (col "o" "ok"), Expr.Col (col "l" "ok")) ];
          },
        (511, 295, 0) );
    ]
  in
  let catalogs =
    [ (256, lazy (Tpcd.load ()));
      (16, lazy (Tpcd.load ~params:{ Tpcd.default_params with frames = 16 } ())) ]
  in
  List.iter
    (fun (name, frames, plan, (rows, reads, writes)) ->
      let name = Printf.sprintf "%s, %d frames" name frames in
      let ctx = Exec_ctx.create ~work_mem:4 (Lazy.force (List.assoc frames catalogs)) in
      let rel, io = Executor.run_measured ~cold:true ctx plan in
      Alcotest.(check int) (name ^ ": rows") rows (Relation.cardinality rel);
      Alcotest.(check int) (name ^ ": reads") reads io.Buffer_pool.reads;
      Alcotest.(check int) (name ^ ": writes") writes io.Buffer_pool.writes;
      Alcotest.(check int) (name ^ ": no temps left") 0 (Exec_ctx.live_temps ctx))
    plans

(* ---- a group over a spilling hash join ----

   At work_mem 4 the orders build side of lineitem ⋈ orders spills, so the
   grace join takes the drained build and partitions both sides.  The
   build is drained once, so the profile holds one orders scan, and the
   page touches and reads are pinned. *)

let spilling_join_io () =
  let col q n = Schema.column ~qual:q n Datatype.Int in
  let scan alias table = Physical.Seq_scan { alias; table; filter = [] } in
  let group input =
    Physical.Hash_group
      {
        input;
        agg_qual = "g";
        keys = [ col "l" "pk" ];
        aggs = [ Aggregate.make Aggregate.Sum ~arg:(Expr.Col (col "l" "qty")) "q" ];
        having = [];
      }
  in
  let join =
    Physical.Hash_join
      { left = scan "l" "lineitem"; right = scan "o" "orders";
        keys = [ (col "l" "ok", col "o" "ok") ]; cond = []; build_side = `Right }
  in
  let cat = Tpcd.load () in
  let run plan =
    let ctx = Exec_ctx.create ~work_mem:4 cat in
    match Executor.run_profiled_result ~cold:true ctx plan with
    | Ok (rel, io, prof) ->
      Alcotest.(check int) "no temps left" 0 (Exec_ctx.live_temps ctx);
      (rel, io, prof)
    | Error (e, _) -> raise e
  in
  let _, io, prof = run (group join) in
  let rec count name nodes =
    List.fold_left
      (fun acc (n : Profile.node) ->
        acc + Bool.to_int (n.Profile.pname = name) + count name (Profile.children n))
      0 nodes
  in
  Alcotest.(check int) "one orders scan" 1 (count "SeqScan(orders)" (Profile.roots prof));
  let touches (io : Buffer_pool.stats) = io.Buffer_pool.reads + io.Buffer_pool.hits in
  Alcotest.(check int) "touches" 7582 (touches io);
  Alcotest.(check int) "reads" 82 io.Buffer_pool.reads

(* ---- the unboxed aggregates' upgrade path ----

   INSERT type-checks its values but [Catalog.add_table] does not, so this
   table's Int-typed [v] holds a [Float] in every 97th row.  COUNT and
   SUM(v) start as unboxed int accumulators and upgrade a group to generic
   states at its first Float row; the result must equal the reference
   interpreter's, with some sum promoted to Float. *)

let int_aggregate_upgrade () =
  let cat = Catalog.create ~frames:1024 () in
  let rows =
    List.init 20_000 (fun i ->
        let v =
          if i mod 97 = 0 then Value.Float (float_of_int (i mod 13) +. 0.5)
          else Value.Int (i mod 13)
        in
        Tuple.make [ Value.Int i; Value.Int (i mod 37); Value.Int (i mod 5); v ])
  in
  ignore
    (Catalog.add_table cat ~name:"m"
       ~columns:
         [ ("id", Datatype.Int); ("g", Datatype.Int); ("h", Datatype.Int);
           ("v", Datatype.Int) ]
       ~pk:[ "id" ] ~index:[] rows);
  let col n = Schema.column ~qual:"m" n Datatype.Int in
  let aggs =
    [ Aggregate.make Aggregate.Count_star "n";
      Aggregate.make Aggregate.Sum ~arg:(Expr.Col (col "v")) "s" ]
  in
  List.iter
    (fun keys ->
      let label = String.concat "," (List.map (fun (c : Schema.column) -> c.Schema.cname) keys) in
      let expected =
        Logical.eval cat
          (Logical.Group
             { input = Logical.scan cat ~alias:"m" "m"; agg_qual = "g"; keys; aggs;
               having = [] })
      in
      let plan =
        Physical.Hash_group
          { Physical.input = Physical.Seq_scan { alias = "m"; table = "m"; filter = [] };
            agg_qual = "g"; keys; aggs; having = [] }
      in
      let ctx = Exec_ctx.create cat in
      let got = Executor.run ctx plan in
      Alcotest.(check bool) (label ^ ": = Logical.eval") true
        (Relation.multiset_equal expected got);
      Alcotest.(check bool) (label ^ ": some sum was upgraded to Float") true
        (List.exists
           (fun t -> match Tuple.get t (Array.length t - 1) with
              | Value.Float _ -> true | _ -> false)
           (Relation.tuples got)))
    [ [ col "g" ]; [ col "g"; col "h" ] ]

let tests =
  [
    Alcotest.test_case "batch primitives" `Quick batch_basics;
    QCheck_alcotest.to_alcotest prop_select_int_cmp;
    Alcotest.test_case "biter chunking" `Quick biter_chunking;
    Alcotest.test_case "heap merge of 64 runs" `Quick merge_64_runs;
    Alcotest.test_case "heap merge tie-break" `Quick merge_stability;
    Alcotest.test_case "limit closes input eagerly" `Quick limit_eager_close;
    Alcotest.test_case "nested-loop and merge joins emit bounded batches" `Quick
      joins_bounded_batches;
    Alcotest.test_case "page IO pinned for BNL, index-NL, merge join, sort-group"
      `Quick pinned_io;
    Alcotest.test_case "group over a spilling hash join drains its build once"
      `Quick spilling_join_io;
    Alcotest.test_case "int aggregates upgrade on mis-typed rows" `Quick
      int_aggregate_upgrade;
    Oracle_tests.executor_equals_reference;
  ]
