(* Morsel-driven parallelism: the exchange rewrite's shapes, parallel
   output byte-identical to serial output on generated queries (the
   oracle harness's dop leg), and error containment — a failing or
   timed-out worker cancels its siblings, the morsel queues drain, every
   temp is freed, and exactly one typed error surfaces. *)

let col q n = Schema.column ~qual:q n Datatype.Int
let le q n v = Expr.Cmp (Expr.Le, Expr.Col (col q n), Expr.Const (Value.Int v))
let sum q n out = Aggregate.make Aggregate.Sum ~arg:(Expr.Col (col q n)) out

let tiny =
  { Tpcd.default_params with customers = 60; orders_per_customer = 3;
    lines_per_order = 4; parts = 40; suppliers = 8 }

let scan_l filter =
  Physical.Seq_scan { alias = "l"; table = "lineitem"; filter }

let group_l input =
  Physical.Hash_group
    {
      Physical.input;
      agg_qual = "g";
      keys = [ col "l" "pk" ];
      aggs = [ sum "l" "price" "rev" ];
      having = [];
    }

let run_batch ?work_mem cat plan =
  let ctx = Exec_ctx.create ?work_mem cat in
  Fun.protect
    ~finally:(fun () -> Exec_ctx.cleanup ctx)
    (fun () -> Executor.run ctx plan)

let same_bytes a b =
  let ta = Relation.tuples a and tb = Relation.tuples b in
  List.length ta = List.length tb && List.for_all2 Tuple.equal ta tb

(* ---- rewrite shapes ---------------------------------------------------- *)

let rewrite_shapes () =
  let scan = scan_l [ le "l" "qty" 5 ] in
  Alcotest.(check bool) "filtered scan is a morsel segment" true
    (Exchange.segment_ok scan);
  Alcotest.(check bool) "bare scan gets an exchange" true
    (Exchange.has_exchange (Exchange.parallelize ~dop:4 scan));
  Alcotest.(check bool) "group over a segment gets an exchange" true
    (Exchange.has_exchange (Exchange.parallelize ~dop:4 (group_l scan)));
  Alcotest.(check bool) "exchange recurses through Sort" true
    (Exchange.has_exchange
       (Exchange.parallelize ~dop:4
          (Physical.Sort
             { input = group_l scan; cols = [ col "g" "rev" ] ; desc = [] })));
  (* A UDF aggregate has no partial/merge decomposition. *)
  Alcotest.(check bool) "UDF aggregates never parallelize partials" false
    (Exchange.parallel_group_ok
       [ Aggregate.make
           (Aggregate.Udf
              {
                Aggregate.udf_name = "first";
                udf_result = Datatype.Int;
                udf_fold =
                  (function v :: _ -> v | [] -> Value.Int 0);
              })
           ~arg:(Expr.Col (col "l" "qty")) "u" ]);
  Alcotest.(check bool) "Int SUM partials merge exactly" true
    (Exchange.parallel_group_ok [ sum "l" "price" "rev" ])

(* ---- error containment ------------------------------------------------- *)

let worker_fault_containment () =
  let cat = Tpcd.load ~params:{ tiny with customers = 300 } () in
  let st = Catalog.storage cat in
  let plan = Physical.Exchange { input = scan_l [ le "l" "qty" 5 ]; dop = 4 } in
  let baseline = run_batch cat plan in
  (* Every page read faults: whichever worker claims a morsel first fails;
     its error wins the slot, siblings stop at their next claim, and the
     consumer re-raises exactly one typed error after the queue drains. *)
  let fplan = Fault.make [ Fault.rule ~op:Fault.Read ~p:1.0 () ] in
  Storage.Faults.install st fplan;
  let ctx = Exec_ctx.create cat in
  (match Executor.run_measured ~cold:true ctx plan with
  | _ -> Alcotest.fail "expected a typed IO fault from a morsel worker"
  | exception Avq_error.Error (Avq_error.Io_fault _) -> ());
  Exec_ctx.cleanup ctx;
  Alcotest.(check bool) "faults were injected" true (Fault.injected fplan >= 1);
  Alcotest.(check int) "no temp heap leaked" 0 (Storage.live_temps st);
  Storage.Faults.clear st;
  (* The team joined cleanly: the same plan runs again and reproduces the
     pre-fault result byte for byte. *)
  Alcotest.(check bool) "clean rerun after containment" true
    (same_bytes baseline (run_batch cat plan))

let deadline_stops_workers () =
  let cat = Tpcd.load ~params:{ tiny with customers = 300 } () in
  let st = Catalog.storage cat in
  (* Parallel partial aggregation: the deadline is polled at every morsel
     claim, on the workers' own domains. *)
  let plan =
    group_l (Physical.Exchange { input = scan_l [ le "l" "qty" 5 ]; dop = 4 })
  in
  let ctx = Exec_ctx.create cat in
  Exec_ctx.begin_statement ~timeout_ms:0.001 ctx;
  (match Executor.run ctx plan with
  | _ -> Alcotest.fail "expected a typed timeout"
  | exception Avq_error.Error (Avq_error.Timeout _) -> ());
  Exec_ctx.cleanup ctx;
  Alcotest.(check int) "no temp heap leaked on timeout" 0
    (Storage.live_temps st);
  (* A fresh statement without a deadline completes normally. *)
  let serial = run_batch cat (group_l (scan_l [ le "l" "qty" 5 ])) in
  Alcotest.(check bool) "parallel group after the timeout" true
    (same_bytes serial (run_batch cat plan))

(* ---- the unboxed aggregates' upgrade path -------------------------------

   INSERT type-checks its values but [Catalog.add_table] does not, so this
   table's Int-typed [v] holds a [Float] in every 97th row.  COUNT and
   SUM(v) start as unboxed int accumulators and upgrade a group to generic
   states at its first Float row: in the serial table, inside a worker's
   partial table, and where an unboxed partial merges with an upgraded one.
   The Floats are halves, so every sum is exact in any order and the
   parallel result must equal the serial one byte for byte. *)

let mistyped_catalog () =
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
  cat

let int_aggregate_upgrade () =
  let cat = mistyped_catalog () in
  let aggs =
    [ Aggregate.make Aggregate.Count_star "n"; sum "m" "v" "s" ]
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
      let serial = run_batch cat plan in
      Alcotest.(check bool) (label ^ ": serial = Logical.eval") true
        (Relation.multiset_equal expected serial);
      Alcotest.(check bool) (label ^ ": some sum was upgraded to Float") true
        (List.exists
           (fun t -> match Tuple.get t (Array.length t - 1) with
              | Value.Float _ -> true | _ -> false)
           (Relation.tuples serial));
      List.iter
        (fun dop ->
          let pplan = Exchange.parallelize ~dop plan in
          Alcotest.(check bool) (Printf.sprintf "%s: dop %d plan is parallel" label dop)
            true (Exchange.has_exchange pplan);
          let par = run_batch cat pplan in
          Alcotest.(check bool) (Printf.sprintf "%s: dop %d = Logical.eval" label dop)
            true (Relation.multiset_equal expected par);
          Alcotest.(check bool) (Printf.sprintf "%s: dop %d = serial, byte for byte" label dop)
            true (same_bytes serial par))
        [ 2; 4 ])
    [ [ col "m" "g" ]; [ col "m" "g"; col "m" "h" ] ]

(* ---- the fused exchange in the parallel group's profile ----------------

   The parallel group runs the exchange inside its own operator, but the
   profile still shows an [Exchange] child with one [worker-<i>] node per
   worker, whose rows add up to the filtered scan's rows. *)

let fused_exchange_profile () =
  let cat = Tpcd.load ~params:{ tiny with customers = 300 } () in
  let scan = scan_l [ le "l" "qty" 5 ] in
  let filtered = Relation.cardinality (run_batch cat scan) in
  let exchange = Physical.Exchange { input = scan; dop = 2 } in
  let ctx = Exec_ctx.create cat in
  let prof =
    match Executor.run_profiled_result ctx (group_l exchange) with
    | Ok (_, _, prof) -> prof
    | Error (e, _) -> raise e
  in
  let rec find name nodes =
    List.find_map
      (fun (n : Profile.node) ->
        if n.Profile.pname = name then Some n else find name (Profile.children n))
      nodes
  in
  match find (Physical.op_name exchange) (Profile.roots prof) with
  | None -> Alcotest.fail "no Exchange node in the profile"
  | Some x ->
    let workers = Profile.children x in
    Alcotest.(check (list string)) "worker nodes" [ "worker-0"; "worker-1" ]
      (List.map (fun (n : Profile.node) -> n.Profile.pname) workers);
    Alcotest.(check int) "worker rows sum to the filtered scan" filtered
      (List.fold_left (fun acc (n : Profile.node) -> acc + n.Profile.rows_out) 0 workers);
    Alcotest.(check int) "exchange rows" filtered x.Profile.rows_out

let tests =
  [
    Alcotest.test_case "rewrite shapes" `Quick rewrite_shapes;
    Oracle_tests.parallel_equals_serial;
    Alcotest.test_case "worker fault cancels siblings" `Quick
      worker_fault_containment;
    Alcotest.test_case "deadline stops morsel workers" `Quick
      deadline_stops_workers;
    Alcotest.test_case "int aggregates upgrade on mis-typed rows" `Quick
      int_aggregate_upgrade;
    Alcotest.test_case "parallel group profile shows the exchange" `Quick
      fused_exchange_profile;
  ]
