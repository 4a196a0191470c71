(* Error-path resource tests: a query that fails mid-pipeline must not leak
   temp heap files, and eager operator closes (Limit) must compose with the
   executor's unconditional cleanup.  The failing operator sits *above* an
   operator holding temps — a spilling external sort mid-merge, or a join or
   group fed by one — so at the moment of the raise the temp files exist. *)

let c ~q n = Schema.column ~qual:q n Datatype.Int

(* 1200 rows of a 2-int schema (~256 rows/page -> ~5 pages), so an external
   sort with work_mem = 3 spills to temp runs. *)
let n_rows = 1200

let build_catalog () =
  let cat = Catalog.create ~frames:256 () in
  let rows =
    List.init n_rows (fun i -> Tuple.make [ Value.Int i; Value.Int (i * 37 mod 101) ])
  in
  ignore
    (Catalog.add_table cat ~name:"r"
       ~columns:[ ("k", Datatype.Int); ("v", Datatype.Int) ]
       ~pk:[ "k" ] ~index:[] rows);
  cat

let spilling_sort = Physical.Sort
    { input = Physical.Seq_scan { alias = "a"; table = "r"; filter = [] };
      cols = [ c ~q:"a" "v" ] ; desc = [] }

(* 100 / (v - 50) > 0 — evaluates fine (negative) for v < 50, raises
   Type_error (division by zero) once the sorted stream reaches v = 50. *)
let exploding_pred =
  Expr.Cmp
    ( Expr.Gt,
      Expr.Binop
        (Expr.Div, Expr.int 100, Expr.Binop (Expr.Sub, Expr.Col (c ~q:"a" "v"), Expr.int 50)),
      Expr.int 0 )

let sort_on q input = Physical.Sort { input; cols = [ c ~q "v" ]; desc = [] }
let scan q = Physical.Seq_scan { alias = q; table = "r"; filter = [] }

(* Operators that hold temps mid-run, each with [a.v] in its output: the
   sort itself, one plan per join or group that walks its input row by
   row — over a spilling sort, or (BNL) against a spooled inner — and a
   hash join whose build side exceeds work_mem and streams its result
   partition by partition from spilled temps. *)
let temp_holding_plans =
  [
    ("sort", spilling_sort);
    ( "block nested-loop join",
      Physical.Block_nl_join
        { left = scan "a"; right = Physical.Materialize { input = scan "b" };
          cond = [ Expr.Cmp (Expr.Eq, Expr.Col (c ~q:"a" "k"), Expr.Col (c ~q:"b" "k")) ] } );
    ( "index nested-loop join",
      Physical.Index_nl_join
        { left = spilling_sort; alias = "b"; table = "r"; column = "k";
          outer_key = c ~q:"a" "k"; cond = [] } );
    ( "merge join",
      Physical.Merge_join
        { left = spilling_sort; right = sort_on "b" (scan "b");
          keys = [ (c ~q:"a" "v", c ~q:"b" "v") ]; cond = [] } );
    ( "grace hash join",
      Physical.Hash_join
        { left = scan "a"; right = scan "b"; keys = [ (c ~q:"a" "v", c ~q:"b" "v") ];
          cond = []; build_side = `Right } );
    ( "sort-group",
      Physical.Sort_group
        { input = spilling_sort; agg_qual = "g"; keys = [ c ~q:"a" "v" ];
          aggs = [ Aggregate.make Aggregate.Count_star "n" ]; having = [] } );
  ]

let check_no_leak (name, plan) () =
  let cat = build_catalog () in
  let ctx = Exec_ctx.create ~work_mem:3 cat in
  let raised =
    match Executor.run ctx (Physical.Filter { input = plan; pred = [ exploding_pred ] }) with
    | _ -> false
    | exception Value.Type_error _ -> true
  in
  Alcotest.(check bool) (name ^ ": Type_error propagates") true raised;
  Alcotest.(check int) (name ^ ": zero temp files survive") 0 (Exec_ctx.live_temps ctx)

(* A statement cancelled mid-pull: the operators release their temps when
   the root is closed, before any context-wide cleanup. *)
let check_cancel_releases (name, plan) () =
  let cat = build_catalog () in
  let ctx = Exec_ctx.create ~work_mem:3 cat in
  let tok = Atomic.make false in
  Exec_ctx.begin_statement ~cancel:tok ctx;
  let bit = Executor.open_batch ctx plan in
  Alcotest.(check bool) (name ^ ": first batch") true (bit.Biter.next_batch () <> None);
  Alcotest.(check bool) (name ^ ": temps live mid-run") true (Exec_ctx.live_temps ctx > 0);
  Atomic.set tok true;
  (match bit.Biter.next_batch () with
   | _ -> Alcotest.failf "%s: cancelled statement kept running" name
   | exception Avq_error.Error Avq_error.Cancelled -> ());
  bit.Biter.close ();
  Alcotest.(check int) (name ^ ": zero temps after close") 0 (Exec_ctx.live_temps ctx)

(* Sanity: the same sort *does* spill and completes cleanly without the
   exploding filter, and cleanup still leaves no temps. *)
let check_clean_run () =
  let cat = build_catalog () in
  let ctx = Exec_ctx.create ~work_mem:3 cat in
  let rel = Executor.run ctx spilling_sort in
  Alcotest.(check int) "row count" n_rows (Relation.cardinality rel);
  Alcotest.(check int) "zero temps after run" 0 (Exec_ctx.live_temps ctx)

(* Limit closes its input eagerly after [count] rows; the executor's
   unconditional cleanup then closes again.  Both closes and the temp drops
   must compose (idempotent close, idempotent drop). *)
let check_limit_compose () =
  let cat = build_catalog () in
  let ctx = Exec_ctx.create ~work_mem:3 cat in
  let plan = Physical.Limit { input = spilling_sort; count = 5 } in
  let rel = Executor.run ctx plan in
  Alcotest.(check int) "limited rows" 5 (Relation.cardinality rel);
  Alcotest.(check int) "zero temps after eager close" 0 (Exec_ctx.live_temps ctx)

let sample_schema = Schema.of_columns [ c ~q:"t" "x" ]
let sample_rows = List.init 10 (fun i -> Tuple.make [ Value.Int i ])

exception Boom

let biter_closes_on_exception () =
  let closes = ref 0 in
  let base = Biter.of_rows sample_schema (Array.of_list sample_rows) in
  let bt =
    { base with Biter.close = (fun () -> incr closes; base.Biter.close ()) }
  in
  (try Biter.iter (fun _ -> raise Boom) bt with Boom -> ());
  Alcotest.(check int) "batch source closed exactly once" 1 !closes

let once_idempotent () =
  let calls = ref 0 in
  let g = Biter.once (fun () -> incr calls) in
  g (); g (); g ();
  Alcotest.(check int) "wrapped close ran once" 1 !calls

let drop_idempotent () =
  let cat = build_catalog () in
  let ctx = Exec_ctx.create ~work_mem:3 cat in
  let tmp = Exec_ctx.temp ctx sample_schema in
  Alcotest.(check int) "one live temp" 1 (Exec_ctx.live_temps ctx);
  Exec_ctx.drop ctx tmp;
  Exec_ctx.drop ctx tmp;
  Alcotest.(check int) "double drop leaves zero" 0 (Exec_ctx.live_temps ctx);
  Exec_ctx.cleanup ctx;
  Alcotest.(check int) "cleanup after drop is a no-op" 0 (Exec_ctx.live_temps ctx)

let tests =
  List.map
    (fun ((name, _) as p) ->
      Alcotest.test_case (name ^ ": failed query leaks no temps") `Quick (check_no_leak p))
    temp_holding_plans
  @ List.map
      (fun ((name, _) as p) ->
        Alcotest.test_case (name ^ ": cancel releases temps on close") `Quick
          (check_cancel_releases p))
      temp_holding_plans
  @ [
      Alcotest.test_case "clean spilling sort leaves no temps" `Quick check_clean_run;
      Alcotest.test_case "limit eager close composes with cleanup" `Quick
        check_limit_compose;
      Alcotest.test_case "biter closes source on exception" `Quick biter_closes_on_exception;
      Alcotest.test_case "once close wrapper is idempotent" `Quick once_idempotent;
      Alcotest.test_case "exec_ctx drop is idempotent" `Quick drop_idempotent;
    ]
