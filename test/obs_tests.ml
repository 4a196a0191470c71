(* avq.obs: metrics registry exports, statement trace span trees, and
   EXPLAIN ANALYZE's estimate-vs-actual q-errors as testable quantities. *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let check_contains what hay needle =
  Alcotest.(check bool)
    (Printf.sprintf "%s contains %s" what needle)
    true (contains hay needle)

(* ---- metrics primitives ---- *)

let metrics_counter_histogram () =
  let c = Metrics.Counter.create () in
  Metrics.Counter.add c 5;
  Metrics.Counter.incr c;
  Alcotest.(check int) "counter sums shards" 6 (Metrics.Counter.get c);
  let h = Metrics.Histogram.create [| 1.; 10.; 100. |] in
  List.iter (Metrics.Histogram.observe h) [ 0.5; 5.; 5.; 50.; 500. ];
  Alcotest.(check int) "histogram count" 5 (Metrics.Histogram.count h);
  Alcotest.(check (float 1e-9)) "histogram sum" 560.5 (Metrics.Histogram.sum h);
  Alcotest.(check (list (pair (float 1e-9) int)))
    "per-bucket (non-cumulative) counts"
    [ (1., 1); (10., 2); (100., 1); (infinity, 1) ]
    (Metrics.Histogram.buckets h)

let metrics_counter_domains () =
  let c = Metrics.Counter.create () in
  let per_domain = 10_000 in
  let ds =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Metrics.Counter.incr c
            done))
  in
  List.iter Domain.join ds;
  Alcotest.(check int) "no lost updates across domains" (4 * per_domain)
    (Metrics.Counter.get c)

let registry_exports () =
  let m = Metrics.create () in
  let c = Metrics.counter m ~help:"a counter" "t_requests_total" in
  Metrics.Counter.add c 3;
  ignore (Metrics.gauge m "t_depth" (fun () -> 7.));
  let h =
    Metrics.histogram m ~buckets:[| 1.; 10. |] ~help:"a histogram" "t_ms"
  in
  Metrics.Histogram.observe h 0.5;
  Metrics.Histogram.observe h 5.;
  let lc =
    Metrics.counter m ~labels:[ ("kind", "x") ] "t_errors_total"
  in
  Metrics.Counter.incr lc;
  let js = Metrics.to_json m in
  List.iter
    (check_contains "json" js)
    [
      "\"t_requests_total\""; "\"t_depth\""; "\"t_ms\"";
      "{\"kind\": \"x\"}"; "\"value\": 3"; "\"value\": 7";
    ];
  let prom = Metrics.to_prometheus m in
  List.iter
    (check_contains "prometheus" prom)
    [
      "# TYPE t_requests_total counter"; "# HELP t_requests_total a counter";
      "t_requests_total 3"; "# TYPE t_depth gauge";
      "t_errors_total{kind=\"x\"} 1"; "t_ms_bucket{le=\"1\"} 1";
      (* cumulative: the 10-bucket includes the 1-bucket's observation *)
      "t_ms_bucket{le=\"10\"} 2"; "t_ms_bucket{le=\"+Inf\"} 2";
      "t_ms_sum 5.5"; "t_ms_count 2";
    ];
  Alcotest.check_raises "invalid metric name rejected"
    (Invalid_argument "Metrics.register: bad metric name \"bad name\"")
    (fun () -> ignore (Metrics.counter m "bad name"))

(* ---- service registry families ---- *)

let service_metric_families () =
  let cat = Emp_dept.load () in
  let svc = Service.create cat in
  ignore
    (Service.submit svc
       "SELECT e.dno AS dno, SUM(e.sal) AS total FROM emp e WHERE e.age <= \
        40 GROUP BY e.dno");
  let m = Service.metrics svc in
  let js = Metrics.to_json m and prom = Metrics.to_prometheus m in
  List.iter
    (fun fam ->
      check_contains "service json" js (Printf.sprintf "\"%s\"" fam);
      check_contains "service prometheus" prom fam)
    [
      "avq_bufferpool_reads_total"; "avq_bufferpool_hits_total";
      "avq_plancache_calls_total"; "avq_plancache_entries";
      "avq_errors_total"; "avq_statements_total"; "avq_statement_ms";
      "avq_statement_io_pages"; "avq_faults_injected_total";
    ];
  check_contains "error kinds are labeled" prom
    "avq_errors_total{kind=\"timeout\"} 0";
  (* pool family appears once a pool exists, and the queue gauge drains *)
  Service.Pool.with_pool ~workers:2 svc (fun pool ->
      let f =
        Service.Pool.submit_sql pool
          "SELECT d.dno AS dno FROM dept d WHERE d.budget <= 500000"
      in
      ignore (Service.Pool.await f);
      let prom = Metrics.to_prometheus m in
      check_contains "pool workers gauge" prom "avq_pool_workers 2";
      check_contains "pool queue gauge" prom "avq_pool_queue_depth 0";
      check_contains "pool executed counter" prom "avq_pool_executed_total")

(* ---- trace span tree ---- *)

(* Just-enough JSONL field extraction: the tracer's output is controlled by
   these tests (no escapes in the fields we read). *)
let field line key =
  let pat = Printf.sprintf "\"%s\":" key in
  let nl = String.length line and np = String.length pat in
  let rec find i =
    if i + np > nl then None
    else if String.sub line i np = pat then Some (i + np)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start ->
    if line.[start] = '"' then begin
      let e = String.index_from line (start + 1) '"' in
      Some (String.sub line (start + 1) (e - start - 1))
    end
    else begin
      let e = ref start in
      while
        !e < nl && (match line.[!e] with ',' | '}' -> false | _ -> true)
      do
        incr e
      done;
      Some (String.sub line start (!e - start))
    end

let fx line key =
  match field line key with
  | Some v -> v
  | None -> Alcotest.failf "span line missing %s: %s" key line

let span_tree () =
  let cat = Emp_dept.load () in
  let svc = Service.create cat in
  let path = Filename.temp_file "avq_trace" ".jsonl" in
  let tr = Trace.create_file path in
  Service.set_tracer svc (Some tr);
  ignore
    (Service.submit svc
       "SELECT e.dno AS dno, SUM(e.sal) AS total FROM emp e WHERE e.age <= \
        40 GROUP BY e.dno");
  Service.set_tracer svc None;
  Trace.close tr;
  let lines =
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> String.trim l <> "")
  in
  Sys.remove path;
  Alcotest.(check bool) "several spans" true (List.length lines >= 5);
  let named n = List.filter (fun l -> fx l "name" = n) lines in
  let root =
    match named "statement" with
    | [ r ] -> r
    | other -> Alcotest.failf "expected 1 statement span, got %d" (List.length other)
  in
  Alcotest.(check string) "root has no parent" "null" (fx root "parent");
  Alcotest.(check bool) "root carries the statement fingerprint" true
    (String.length (fx root "fingerprint") = 16);
  let root_id = fx root "span" in
  List.iter
    (fun n ->
      match named n with
      | [ sp ] ->
        Alcotest.(check string) (n ^ " is a child of statement") root_id
          (fx sp "parent")
      | other -> Alcotest.failf "expected 1 %s span, got %d" n (List.length other))
    [ "parse"; "canonicalize"; "plan"; "execute" ];
  (* operator spans hang off execute and their root covers the execute span
     (operator spans are synthesized from the profile, which measures the
     same work the execute span wraps) *)
  let exec = List.hd (named "execute") in
  let exec_id = fx exec "span" in
  let ops = List.filter (fun l -> fx l "parent" = exec_id) lines in
  Alcotest.(check bool) "execute has operator children" true (ops <> []);
  let exec_ms = float_of_string (fx exec "dur_ms") in
  let op_root_ms =
    List.fold_left (fun acc l -> acc +. float_of_string (fx l "dur_ms")) 0. ops
  in
  let tol = Float.max 5. (0.5 *. exec_ms) in
  Alcotest.(check bool)
    (Printf.sprintf "op tree (%.2fms) accounts for execute (%.2fms)"
       op_root_ms exec_ms)
    true
    (Float.abs (exec_ms -. op_root_ms) <= tol);
  Alcotest.(check int) "tracer span tally matches file" (List.length lines)
    (Trace.spans_emitted tr)

(* ---- EXPLAIN ANALYZE q-errors: cost-model validation ---- *)

let ed_cat = lazy (Emp_dept.load ())

let analyze_plan ?(work_mem = 32) cat plan =
  let ctx = Exec_ctx.create ~work_mem cat in
  let res, report = Explain_analyze.analyze ~cold:true ctx plan in
  (match res with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "analyze failed: %s" (Printexc.to_string e));
  report

let check_q what bound v =
  Alcotest.(check bool)
    (Printf.sprintf "%s: q=%.2f <= %.1f" what v bound)
    true (v <= bound)

let qerror_scans () =
  let cat = Lazy.force ed_cat in
  let seq =
    Physical.Seq_scan { alias = "e"; table = "emp"; filter = [] }
  in
  let r = analyze_plan cat seq in
  check_q "seq scan rows" 1.5 (Explain_analyze.q_rows r.Explain_analyze.root);
  check_q "seq scan pages" 2. (Explain_analyze.q_pages r.Explain_analyze.root);
  let idx =
    Physical.Index_scan
      { alias = "e"; table = "emp"; column = "age";
        lo = None; hi = Some (Value.Int 30, true); filter = [] }
  in
  let r = analyze_plan cat idx in
  check_q "index scan rows" 3. (Explain_analyze.q_rows r.Explain_analyze.root);
  (* The model caps unclustered fetch cost at the table's page count
     (assuming the pool absorbs revisits), while the actual counts every
     heap access — so index scans carry the largest structural q_pages.
     The bound documents that gap and trips if either side drifts. *)
  check_q "index scan pages" 60. (Explain_analyze.q_pages r.Explain_analyze.root)

let c ~q n = Schema.column ~qual:q n Datatype.Int

let qerror_join_group () =
  let cat = Lazy.force ed_cat in
  let join =
    Physical.Hash_join
      {
        left = Physical.Seq_scan { alias = "e"; table = "emp"; filter = [] };
        right = Physical.Seq_scan { alias = "d"; table = "dept"; filter = [] };
        keys = [ (c ~q:"e" "dno", c ~q:"d" "dno") ];
        cond = [];
        build_side = `Right;
      }
  in
  let r = analyze_plan cat join in
  check_q "hash join rows" 5. (Explain_analyze.q_rows r.Explain_analyze.root);
  check_q "hash join pages" 5. (Explain_analyze.q_pages r.Explain_analyze.root);
  let group =
    Physical.Hash_group
      {
        input = Physical.Seq_scan { alias = "e"; table = "emp"; filter = [] };
        agg_qual = "g";
        keys = [ c ~q:"e" "dno" ];
        aggs =
          [ Aggregate.make Aggregate.Sum ~arg:(Expr.Col (c ~q:"e" "sal"))
              "total" ];
        having = [];
      }
  in
  let r = analyze_plan cat group in
  check_q "hash group rows" 5. (Explain_analyze.q_rows r.Explain_analyze.root);
  check_q "hash group pages" 5. (Explain_analyze.q_pages r.Explain_analyze.root)

(* Example 1 end to end: the optimizer's chosen plan, every profiled node
   within a loose q-error bound — the cost model may be off per node, but
   not unboundedly so. *)
let qerror_example1 () =
  let cat = Lazy.force ed_cat in
  let q = Emp_dept.example1 () in
  let r = Optimizer.optimize cat q in
  let report = analyze_plan cat r.Optimizer.plan in
  List.iter
    (fun n ->
      if not n.Explain_analyze.missing then begin
        check_q
          (Printf.sprintf "example1 %s rows" n.Explain_analyze.label)
          50. (Explain_analyze.q_rows n);
        check_q
          (Printf.sprintf "example1 %s pages" n.Explain_analyze.label)
          50. (Explain_analyze.q_pages n)
      end)
    (Explain_analyze.nodes report)

(* ---- partial stats on failing statements ---- *)

let exploding_pred col =
  (* 100 / (age - 40) flips to a division by zero partway through the scan *)
  Expr.Cmp
    ( Expr.Gt,
      Expr.Binop
        ( Expr.Div, Expr.int 100,
          Expr.Binop (Expr.Sub, Expr.Col col, Expr.int 40) ),
      Expr.int (-1000) )

let partial_profile_on_error () =
  let cat = Lazy.force ed_cat in
  let plan =
    Physical.Filter
      {
        input = Physical.Seq_scan { alias = "e"; table = "emp"; filter = [] };
        pred = [ exploding_pred (c ~q:"e" "age") ];
      }
  in
  let ctx = Exec_ctx.create ~work_mem:32 cat in
  match Executor.run_profiled_result ctx plan with
  | Ok _ -> Alcotest.fail "expected the statement to fail"
  | Error (_, prof) ->
    (match Profile.error prof with
     | Some _ -> ()
     | None -> Alcotest.fail "profile not marked partial");
    let filter = List.hd (Profile.roots prof) in
    let scan = List.hd (Profile.children filter) in
    Alcotest.(check string) "scan node present" "SeqScan(emp)"
      scan.Profile.pname;
    Alcotest.(check bool) "partial rows were counted" true
      (scan.Profile.rows_out > 0);
    (* the same failure through EXPLAIN ANALYZE keeps the partial tree *)
    let _, report =
      Explain_analyze.analyze (Exec_ctx.create ~work_mem:32 cat) plan
    in
    Alcotest.(check bool) "report carries the error" true
      (report.Explain_analyze.error <> None);
    let rendered = Explain_analyze.to_string report in
    check_contains "rendered report" rendered "FAILED (partial stats)"

(* ---- profiling must not change what the executor does ---- *)

let profiled_io_equals_unprofiled () =
  let cat =
    Tpcd.load
      ~params:
        { Tpcd.default_params with customers = 60; orders_per_customer = 3;
          lines_per_order = 3; parts = 30; suppliers = 8 }
      ()
  in
  let q = Tpcd.q_small_quantity_parts () in
  let plan = (Optimizer.optimize cat q).Optimizer.plan in
  let run profiled =
    let ctx = Exec_ctx.create ~work_mem:8 cat in
    if profiled then
      match Executor.run_profiled_result ~cold:true ctx plan with
      | Ok (rel, io, _) -> (rel, io)
      | Error (e, _) -> raise e
    else Executor.run_measured ~cold:true ctx plan
  in
  let rel_p, io_p = run true and rel_u, io_u = run false in
  Alcotest.(check bool) "same result under profiling" true
    (Relation.multiset_equal rel_p rel_u);
  Alcotest.(check int) "same reads under profiling"
    io_u.Buffer_pool.reads io_p.Buffer_pool.reads;
  Alcotest.(check int) "same writes under profiling"
    io_u.Buffer_pool.writes io_p.Buffer_pool.writes

(* json_float must round-trip every finite float exactly: %g's 6 significant
   digits silently corrupted large counters and sums like 0.1 +. 0.2. *)
let json_float_roundtrip () =
  let exact =
    [
      0.; 1.; -1.; 42.; 1e15 -. 1.; 1e15 +. 4.; 4503599627370497.;
      0.1; 0.1 +. 0.2; 1. /. 3.; -1.5e-300; 1.7976931348623157e308;
      123456789.123456789; 2718281828459045.7;
    ]
  in
  List.iter
    (fun x ->
      let s = Metrics.json_float x in
      Alcotest.(check (float 0.))
        (Printf.sprintf "%h round-trips via %S" x s)
        x (float_of_string s))
    exact;
  (* integral values keep the compact no-fraction form *)
  Alcotest.(check string) "integral compact" "42" (Metrics.json_float 42.);
  Alcotest.(check string) "large integral compact" "999999999999999"
    (Metrics.json_float 999_999_999_999_999.);
  Alcotest.(check string) "nan sanitized for JSON" "0" (Metrics.json_float Float.nan)

let tests =
  [
    Alcotest.test_case "counter + histogram primitives" `Quick
      metrics_counter_histogram;
    Alcotest.test_case "json_float round-trips exactly" `Quick
      json_float_roundtrip;
    Alcotest.test_case "counter across domains" `Quick metrics_counter_domains;
    Alcotest.test_case "registry JSON + Prometheus exports" `Quick
      registry_exports;
    Alcotest.test_case "service metric families" `Quick service_metric_families;
    Alcotest.test_case "statement span tree" `Quick span_tree;
    Alcotest.test_case "q-error: scans" `Quick qerror_scans;
    Alcotest.test_case "q-error: join + group" `Quick qerror_join_group;
    Alcotest.test_case "q-error: example 1 plan" `Quick qerror_example1;
    Alcotest.test_case "partial stats on error" `Quick partial_profile_on_error;
    Alcotest.test_case "profiling is observation-only" `Quick
      profiled_io_equals_unprofiled;
  ]
