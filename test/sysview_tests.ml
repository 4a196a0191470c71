(* Observability v2: the statement-statistics store (Stmt_stats), the
   system views synthesized into the catalog, the \stats directive, the
   HTTP observability endpoint, the data-dir lock, and the Prometheus
   histogram export shape. *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let check_contains what hay needle =
  Alcotest.(check bool)
    (Printf.sprintf "%s contains %s" what needle)
    true (contains hay needle)

let small =
  { Emp_dept.default_params with Emp_dept.emps = 800; depts = 5; seed = 7 }

let make_service () = Service.create (Emp_dept.load ~params:small ())

let run svc sql =
  let _, rel, _ = Service.submit svc sql in
  rel

let probe_sql = "SELECT e.dno AS dno, COUNT(*) AS c FROM emp e GROUP BY e.dno"

(* ---- Stmt_stats store ---- *)

let stats_basics () =
  let st = Stmt_stats.create () in
  Stmt_stats.record st ~fp:"aaaa" ~query:"q1" ~rows:10 ~pages:3 ~cache_hit:true
    ~ms:2.0 ();
  Stmt_stats.record st ~fp:"aaaa" ~query:"q1" ~rows:5 ~pages:1 ~rebind:true
    ~ms:4.0 ();
  Stmt_stats.record st ~fp:"bbbb" ~query:"q2" ~error:"timeout" ~ms:100.0 ();
  Alcotest.(check int) "tracked" 2 (Stmt_stats.tracked st);
  Alcotest.(check int) "recorded" 3 (Stmt_stats.recorded st);
  Alcotest.(check int) "total calls" 3 (Stmt_stats.total_calls st);
  let by_fp fp =
    List.find (fun (s : Stmt_stats.stat) -> s.fingerprint = fp)
      (Stmt_stats.snapshot st)
  in
  let a = by_fp "aaaa" in
  Alcotest.(check int) "calls" 2 a.Stmt_stats.calls;
  Alcotest.(check int) "errors" 0 a.Stmt_stats.errors;
  Alcotest.(check (float 1e-9)) "total_ms" 6.0 a.Stmt_stats.total_ms;
  Alcotest.(check (float 1e-9)) "mean_ms" 3.0 a.Stmt_stats.mean_ms;
  Alcotest.(check (float 1e-9)) "min_ms" 2.0 a.Stmt_stats.min_ms;
  Alcotest.(check (float 1e-9)) "max_ms" 4.0 a.Stmt_stats.max_ms;
  Alcotest.(check int) "rows sum" 15 a.Stmt_stats.rows;
  Alcotest.(check int) "pages sum" 4 a.Stmt_stats.pages;
  Alcotest.(check int) "cache hits" 1 a.Stmt_stats.cache_hits;
  Alcotest.(check int) "rebinds" 1 a.Stmt_stats.rebinds;
  let b = by_fp "bbbb" in
  Alcotest.(check int) "error count" 1 b.Stmt_stats.errors;
  Alcotest.(check (list (pair string int)))
    "error classes"
    [ ("timeout", 1) ]
    b.Stmt_stats.error_classes;
  (* quantiles answer with bucket upper bounds of the shared latency
     ladder: 2ms and 4ms land in the 2.5 and 5 buckets, 100ms exactly on
     the 100 bound *)
  Alcotest.(check (float 1e-9)) "p50 of single obs" 100. b.Stmt_stats.p50_ms;
  Alcotest.(check (float 1e-9)) "p50 over ladder" 2.5 a.Stmt_stats.p50_ms;
  Alcotest.(check (float 1e-9)) "p99 over ladder" 5. a.Stmt_stats.p99_ms;
  (* snapshot sorts by total_ms desc *)
  (match Stmt_stats.snapshot st with
  | first :: _ ->
    Alcotest.(check string) "hottest first" "bbbb" first.Stmt_stats.fingerprint
  | [] -> Alcotest.fail "snapshot empty");
  let json = Stmt_stats.to_json_top ~n:1 st in
  check_contains "top json" json "\"fingerprint\": \"bbbb\"";
  check_contains "top json tracked" json "\"tracked\": 2"

let stats_eviction () =
  let st = Stmt_stats.create ~max_entries:8 () in
  (* 8 shards, cap 1 per shard: 64 distinct fingerprints must evict *)
  for i = 1 to 64 do
    Stmt_stats.record st ~fp:(Printf.sprintf "fp%02d" i) ~query:"q" ~ms:1.0 ()
  done;
  Alcotest.(check bool) "bounded" true (Stmt_stats.tracked st <= 8);
  Alcotest.(check int) "evicted the rest" (64 - Stmt_stats.tracked st)
    (Stmt_stats.evictions st);
  Alcotest.(check int) "recorded counts everything" 64 (Stmt_stats.recorded st);
  Alcotest.check_raises "cap below shard count refused"
    (Invalid_argument "Stmt_stats.create: max_entries below shard count")
    (fun () -> ignore (Stmt_stats.create ~max_entries:4 ()))

let stats_lru_keeps_hot () =
  let st = Stmt_stats.create ~max_entries:16 () in
  (* keep one fingerprint hot while cycling many cold ones through the
     shards; the hot one must survive every eviction *)
  for round = 1 to 50 do
    Stmt_stats.record st ~fp:"hot" ~query:"q" ~ms:1.0 ();
    Stmt_stats.record st ~fp:(Printf.sprintf "cold%d" round) ~query:"q" ~ms:1.0 ()
  done;
  Alcotest.(check bool) "hot fingerprint survived" true
    (List.exists
       (fun (s : Stmt_stats.stat) -> s.fingerprint = "hot")
       (Stmt_stats.snapshot st))

let stats_reset_keeps_counters () =
  let st = Stmt_stats.create () in
  Stmt_stats.record st ~fp:"x" ~query:"q" ~ms:1.0 ();
  Stmt_stats.reset st;
  Alcotest.(check int) "tracked drops" 0 (Stmt_stats.tracked st);
  Alcotest.(check int) "recorded survives" 1 (Stmt_stats.recorded st);
  Alcotest.(check int) "total_calls drops" 0 (Stmt_stats.total_calls st)

let stats_across_domains () =
  let st = Stmt_stats.create () in
  let per_domain = 2_000 in
  let fps = [| "d0"; "d1"; "d2"; "d3" |] in
  let ds =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              Stmt_stats.record st ~fp:fps.((d + i) mod 4) ~query:"q"
                ~rows:1 ~ms:0.1 ()
            done))
  in
  List.iter Domain.join ds;
  Alcotest.(check int) "no observation lost" (4 * per_domain)
    (Stmt_stats.recorded st);
  Alcotest.(check int) "sum of calls = recorded (no eviction)"
    (4 * per_domain) (Stmt_stats.total_calls st);
  Alcotest.(check int) "4 fingerprints" 4 (Stmt_stats.tracked st)

(* ---- the service records into the store on every path ---- *)

let prom_counter_value body name =
  let target = name ^ " " in
  let line =
    List.find_opt
      (fun l ->
        String.length l > String.length target
        && String.sub l 0 (String.length target) = target)
      (String.split_on_char '\n' body)
  in
  match line with
  | None -> Alcotest.fail (name ^ " not exported")
  | Some l ->
    float_of_string
      (String.sub l (String.length target)
         (String.length l - String.length target))

(* The tentpole's sum invariant: with nothing evicted or reset, the total
   calls across tracked fingerprints equal [avq_statements_total] — every
   statement path records exactly one observation.  Exercised under 4 pool
   workers plus an INSERT and an EXPLAIN ANALYZE riding along, and one
   failure of each shape: a bind error on the sync and on the pool path, a
   parse error in an INSERT, a timeout and a failed EXPLAIN ANALYZE. *)
let pool_soak_sum_invariant () =
  let svc = make_service () in
  let templates =
    [|
      "SELECT e.dno AS dno, COUNT(*) AS c FROM emp e GROUP BY e.dno";
      "SELECT e.dno AS dno, AVG(e.sal) AS s FROM emp e WHERE e.sal > 1000 \
       GROUP BY e.dno";
      "SELECT d.dname AS dname, COUNT(*) AS c FROM emp e, dept d WHERE e.dno \
       = d.dno GROUP BY d.dname";
    |]
  in
  let per_template = 12 in
  Service.Pool.with_pool ~workers:4 svc (fun pool ->
      let futs =
        List.init (3 * per_template) (fun i ->
            Service.Pool.submit_sql pool templates.(i mod 3))
      in
      List.iter (fun f -> ignore (Service.Pool.await f)) futs);
  ignore
    (Service.exec_statement svc "INSERT INTO emp VALUES (990001, 1, 5000, 31)");
  let stmt = Service.prepare svc templates.(0) in
  (match Service.explain_analyze svc stmt with
  | _, Ok _, _ -> ()
  | _, Error _, _ -> Alcotest.fail "explain analyze failed");
  let expect_error what kind f =
    match f () with
    | _ -> Alcotest.failf "%s should have failed" what
    | exception Avq_error.Error e ->
      Alcotest.(check string) what kind (Avq_error.kind_label e)
  in
  let unbound = "SELECT x.nope AS n FROM emp x" in
  let triples =
    "SELECT e1.dno AS dno, COUNT(*) AS c FROM emp e1, emp e2, emp e3 WHERE \
     e1.dno = e2.dno AND e2.dno = e3.dno GROUP BY e1.dno"
  in
  let limits = { Service.no_limits with Service.sl_timeout_ms = Some 1. } in
  expect_error "bind error, sync" "bad-statement" (fun () ->
      Service.submit svc unbound);
  expect_error "parse error in an INSERT" "bad-statement" (fun () ->
      Service.exec_statement svc "INSERT INTO emp VALUES (1,2");
  Service.Pool.with_pool ~workers:2 svc (fun pool ->
      expect_error "bind error, pool" "bad-statement" (fun () ->
          Service.Pool.await (Service.Pool.submit_sql pool unbound));
      expect_error "timeout" "timeout" (fun () ->
          Service.Pool.await (Service.Pool.submit_sql ~limits pool triples)));
  (match Service.explain_analyze ~limits svc (Service.prepare svc triples) with
  | _, Error (Avq_error.Error (Avq_error.Timeout _)), _ -> ()
  | _ -> Alcotest.fail "explain analyze under a 1 ms deadline must time out");
  let failures = 5 in
  let st = Service.stats_store svc in
  let expected = (3 * per_template) + 2 + failures in
  Alcotest.(check int) "recorded = statements executed" expected
    (Stmt_stats.recorded st);
  Alcotest.(check int) "sum(calls) = recorded (nothing evicted)" expected
    (Stmt_stats.total_calls st);
  let prom = Metrics.to_prometheus (Service.metrics svc) in
  Alcotest.(check (float 0.))
    "sum(calls) = avq_statements_total"
    (prom_counter_value prom "avq_statements_total")
    (float_of_int (Stmt_stats.total_calls st));
  let stat_errors =
    List.fold_left
      (fun acc (s : Stmt_stats.stat) -> acc + s.Stmt_stats.errors)
      0 (Stmt_stats.snapshot st)
  in
  Alcotest.(check int) "failures recorded" failures stat_errors;
  Alcotest.(check int) "sum(errors) = sum(avq_errors_total)" stat_errors
    (Service.total_errors (Service.stats svc).Service.errors);
  Alcotest.(check (float 0.))
    "avq_statement_ms observes the successes"
    (float_of_int (expected - failures))
    (prom_counter_value prom "avq_statement_ms_count");
  check_contains "store meta-instruments exported" prom
    "avq_stat_recorded_total"

(* ---- system views ---- *)

let sysview_statements () =
  let svc = make_service () in
  ignore (run svc probe_sql);
  ignore (run svc probe_sql);
  let rel =
    run svc "SELECT * FROM avq_stat_statements ORDER BY total_ms DESC LIMIT 5"
  in
  Alcotest.(check bool) "at least the probe row" true
    (Relation.cardinality rel >= 1);
  Alcotest.(check int) "all 19 columns" 19 (Schema.arity (Relation.schema rel));
  (* total_ms (column 4) really is descending *)
  let totals =
    List.map
      (fun t ->
        match Tuple.get t 4 with
        | Value.Float f -> f
        | _ -> Alcotest.fail "total_ms must be a float")
      (Relation.tuples rel)
  in
  Alcotest.(check bool) "ordered descending" true
    (List.sort (fun a b -> compare b a) totals = totals);
  (* the probe's entry carries its two calls, the second a plan-cache hit *)
  let rel2 =
    run svc
      "SELECT s.fingerprint AS fingerprint, s.calls AS calls, s.cache_hits \
       AS hits FROM avq_stat_statements s WHERE s.calls = 2"
  in
  Alcotest.(check int) "probe fingerprint found" 1 (Relation.cardinality rel2);
  (match Relation.tuples rel2 with
  | [ t ] ->
    Alcotest.(check bool) "second call hit the plan cache" true
      (Tuple.get t 2 = Value.Int 1)
  | _ -> Alcotest.fail "expected one row");
  (* writes into system views are refused with a typed error *)
  match
    Service.exec_statement svc "INSERT INTO avq_stat_statements VALUES (1)"
  with
  | _ -> Alcotest.fail "INSERT into a system view must be refused"
  | exception Avq_error.Error (Avq_error.Bad_statement _) -> ()

let sysview_tables_and_matviews () =
  let svc = make_service () in
  let rel =
    run svc "SELECT t.name AS name, t.rows AS rows FROM avq_stat_tables t"
  in
  Alcotest.(check int) "emp + dept, no system tables listed" 2
    (Relation.cardinality rel);
  let rel = run svc "SELECT * FROM avq_stat_matviews" in
  Alcotest.(check int) "no views yet" 0 (Relation.cardinality rel);
  ignore
    (Service.exec_statement svc
       "CREATE MATERIALIZED VIEW by_dept AS SELECT e.dno AS dno, SUM(e.sal) \
        AS total FROM emp e GROUP BY e.dno");
  let rel =
    run svc
      "SELECT v.name AS name, v.groups AS groups, v.fresh AS fresh FROM \
       avq_stat_matviews v"
  in
  (match Relation.tuples rel with
  | [ t ] ->
    Alcotest.(check bool) "name" true (Tuple.get t 0 = Value.String "by_dept");
    Alcotest.(check bool) "5 groups" true (Tuple.get t 1 = Value.Int 5);
    Alcotest.(check bool) "fresh" true (Tuple.get t 2 = Value.Bool true)
  | _ -> Alcotest.fail "expected exactly by_dept");
  (* staleness shows up once a base change goes unabsorbed *)
  Matview.set_maintenance (Service.matviews svc) "by_dept" false;
  ignore
    (Service.exec_statement svc "INSERT INTO emp VALUES (990001, 1, 5000, 31)");
  let rel = run svc "SELECT v.fresh AS fresh FROM avq_stat_matviews v" in
  (match Relation.tuples rel with
  | [ t ] ->
    Alcotest.(check bool) "stale after unabsorbed insert" true
      (Tuple.get t 0 = Value.Bool false)
  | _ -> Alcotest.fail "expected one row");
  (* the backing extent is a regular table, visible in avq_stat_tables *)
  let rel =
    run svc "SELECT t.name AS name FROM avq_stat_tables t WHERE t.rows = 5"
  in
  Alcotest.(check bool) "extent listed" true
    (List.exists
       (fun t -> Tuple.get t 0 = Value.String "__mv_by_dept")
       (Relation.tuples rel))

let sysview_snapshot_is_per_statement () =
  let svc = make_service () in
  let monitoring =
    "SELECT s.calls AS calls FROM avq_stat_statements s WHERE s.calls > 0"
  in
  let count () = Relation.cardinality (run svc monitoring) in
  let n1 = count () in
  ignore (run svc probe_sql);
  let n2 = count () in
  Alcotest.(check bool) "later snapshot sees the new statement" true (n2 > n1);
  (* repeated monitoring queries must be cache-served: a same-shaped
     snapshot refresh must not bump the catalog epoch *)
  let p, _, _ = Service.submit svc monitoring in
  match p.Service.source with
  | Service.Hit | Service.Hit_rebound -> ()
  | s ->
    Alcotest.failf "monitoring query should be cache-served, got %s"
      (Service.source_label s)

let sysview_not_checkpointed () =
  let dir =
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "avq_sysview_ckpt_%d" (Unix.getpid ()))
    in
    if Sys.file_exists d then
      Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d)
    else Unix.mkdir d 0o755;
    d
  in
  let load () = Emp_dept.load ~params:small () in
  let cat, mviews, writer, rstats =
    Recovery.recover ~data_dir:dir ~meta:"sysview" ~seed:load ()
  in
  let svc = Service.create ~mviews cat in
  Service.attach_wal svc ~data_dir:dir ~recovery:rstats writer;
  ignore (run svc probe_sql);
  (* materialize the system views, then checkpoint with them in the catalog *)
  ignore (run svc "SELECT * FROM avq_stat_statements");
  ignore
    (Service.exec_statement svc "INSERT INTO emp VALUES (990001, 1, 5000, 31)");
  let tag = Service.checkpoint svc in
  check_contains "checkpointed" tag "CHECKPOINT";
  let cat2, _, w2, st2 =
    Recovery.recover ~data_dir:dir ~meta:"sysview" ~seed:load ()
  in
  Wal.close w2;
  Alcotest.(check bool) "checkpoint loaded" true st2.Recovery.checkpoint_loaded;
  Alcotest.(check bool) "no system table snapshot recovered" true
    (List.for_all
       (fun (t : Catalog.table) -> not (Sysview.is_system_table t.Catalog.tname))
       (Catalog.tables cat2));
  (* and a fresh service over the recovered catalog synthesizes them anew *)
  let svc2 = Service.create cat2 in
  let rel = run svc2 "SELECT t.name AS name FROM avq_stat_tables t" in
  Alcotest.(check int) "emp + dept recovered" 2 (Relation.cardinality rel)

let stats_directive () =
  let svc = make_service () in
  ignore (run svc probe_sql);
  (match Replay.classify "\\stats" with
  | Replay.Directive_stats `Show -> ()
  | _ -> Alcotest.fail "\\stats must classify as a stats directive");
  (match Replay.classify "\\stats reset" with
  | Replay.Directive_stats `Reset -> ()
  | _ -> Alcotest.fail "\\stats reset must classify as a reset");
  let body = Replay.run_stats svc `Show in
  check_contains "header" body "fingerprint";
  check_contains "tracked" body "tracked=1";
  ignore (Replay.run_stats svc `Reset);
  check_contains "after reset" (Replay.run_stats svc `Show) "tracked=0";
  (* through the replay loop itself *)
  match Replay.replay svc "\\stats;;" with
  | [ { Replay.outcome = Replay.Rendered body; _ } ] ->
    check_contains "replayed directive" body "recorded="
  | _ -> Alcotest.fail "expected one rendered line"

(* ---- over the TCP protocol ---- *)

let with_server ?(workers = 2) f =
  Lifecycle.reset ();
  let svc = make_service () in
  Service.Pool.with_pool ~workers svc (fun pool ->
      let srv =
        Server.start ~config:{ Server.default_config with Server.port = 0 } pool
      in
      Fun.protect
        ~finally:(fun () ->
          Server.stop srv;
          Lifecycle.reset ())
        (fun () -> f svc srv))

let server_sysviews_over_tcp () =
  with_server (fun svc srv ->
      let c = Client.connect ~port:(Server.port srv) () in
      (match Client.query c probe_sql with
      | Protocol.Result { rows; _ } -> Alcotest.(check int) "probe rows" 5 rows
      | _ -> Alcotest.fail "probe failed");
      (match
         Client.query c
           "SELECT * FROM avq_stat_statements ORDER BY total_ms DESC LIMIT 5"
       with
      | Protocol.Result { rows; body; _ } ->
        Alcotest.(check bool) "tracked statements" true (rows >= 1);
        check_contains "header row" body "fingerprint";
        (* the view and the store agree on the hottest statement *)
        (match Stmt_stats.snapshot (Service.stats_store svc) with
        | top :: _ ->
          check_contains "agrees with store" body top.Stmt_stats.fingerprint
        | [] -> Alcotest.fail "store empty")
      | _ -> Alcotest.fail "system view query failed");
      (* this very connection appears in avq_server_sessions *)
      (match
         Client.query c
           "SELECT s.sid AS sid, s.prepared AS prepared FROM \
            avq_server_sessions s"
       with
      | Protocol.Result { rows; _ } ->
        Alcotest.(check int) "one live session" 1 rows
      | _ -> Alcotest.fail "sessions view failed");
      (match Client.query c "\\stats" with
      | Protocol.Result { body; _ } ->
        check_contains "directive body" body "tracked="
      | _ -> Alcotest.fail "\\stats over TCP failed");
      Client.close c)

(* ---- slow-query log carries fingerprint + sid ---- *)

let with_captured_stderr f =
  flush stderr;
  let saved = Unix.dup Unix.stderr in
  let path = Filename.temp_file "avq_slow" ".log" in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  Unix.dup2 fd Unix.stderr;
  Unix.close fd;
  Fun.protect
    ~finally:(fun () ->
      flush stderr;
      Unix.dup2 saved Unix.stderr;
      Unix.close saved)
    f;
  In_channel.with_open_text path In_channel.input_all

let slow_log_fields () =
  let svc = make_service () in
  let tr = Trace.create ~slow_ms:0.0 () in
  Service.set_tracer svc (Some tr);
  let stmt = Service.prepare svc probe_sql in
  let limits = { Service.no_limits with Service.sl_sid = Some 7 } in
  let log =
    with_captured_stderr (fun () ->
        let ctx = Exec_ctx.create (Service.catalog svc) in
        ignore (Service.execute_on ctx ~limits svc stmt))
  in
  Service.set_tracer svc None;
  Alcotest.(check int) "slow statement noted" 1 (Trace.slow_statements tr);
  check_contains "slow log line" log "[slow ";
  check_contains "fingerprint joins avq_stat_statements" log
    ("fp=" ^ Service.stmt_fingerprint stmt);
  check_contains "session id" log "sid=7"

(* ---- HTTP endpoint ---- *)

let http_request port raw_req =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  ignore (Unix.write_substring fd raw_req 0 (String.length raw_req));
  let buf = Buffer.create 512 in
  let chunk = Bytes.create 1024 in
  let rec drain () =
    match Unix.read fd chunk 0 1024 with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      drain ()
    | exception Unix.Unix_error _ -> ()
  in
  drain ();
  Unix.close fd;
  Buffer.contents buf

let http_get port target =
  let raw = http_request port (Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" target) in
  let code =
    try int_of_string (String.sub raw 9 3)
    with _ -> Alcotest.fail ("unparsable reply: " ^ raw)
  in
  let body =
    let rec find i =
      if i + 4 > String.length raw then raw
      else if String.sub raw i 4 = "\r\n\r\n" then
        String.sub raw (i + 4) (String.length raw - i - 4)
      else find (i + 1)
    in
    find 0
  in
  (code, body)

let http_endpoints () =
  Lifecycle.reset ();
  let scraped = ref 0 in
  let h =
    Http.start ~port:0
      ~metrics:(fun () ->
        incr scraped;
        "avq_statements_total 42\n")
      ~statements:(fun ~n -> Printf.sprintf "{\"n\":%d}" n)
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Http.stop h;
      Lifecycle.reset ())
    (fun () ->
      let port = Http.port h in
      (* before set_ready everything but healthz is 503, healthz says why *)
      let code, body = http_get port "/healthz" in
      Alcotest.(check int) "healthz recovering code" 503 code;
      check_contains "healthz recovering body" body "recovering";
      let code, _ = http_get port "/metrics" in
      Alcotest.(check int) "metrics gated" 503 code;
      Http.set_ready h;
      let code, body = http_get port "/healthz" in
      Alcotest.(check int) "healthz ready" 200 code;
      check_contains "ready body" body "ready";
      let code, body = http_get port "/metrics" in
      Alcotest.(check int) "metrics open" 200 code;
      check_contains "metrics body" body "avq_statements_total 42";
      let code, body = http_get port "/statements?n=3" in
      Alcotest.(check int) "statements" 200 code;
      Alcotest.(check string) "n forwarded" "{\"n\":3}" body;
      let _, body = http_get port "/statements" in
      Alcotest.(check string) "default n" "{\"n\":10}" body;
      let code, _ = http_get port "/nope" in
      Alcotest.(check int) "unknown path" 404 code;
      let raw = http_request port "POST /metrics HTTP/1.0\r\n\r\n" in
      check_contains "post refused" raw "405";
      (* draining flips healthz while /metrics stays up for the last scrape *)
      Lifecycle.request_drain ();
      let code, body = http_get port "/healthz" in
      Alcotest.(check int) "healthz draining code" 503 code;
      check_contains "draining body" body "draining";
      let code, _ = http_get port "/metrics" in
      Alcotest.(check int) "metrics during drain" 200 code;
      Alcotest.(check bool) "scrapes counted" true (!scraped >= 2);
      Alcotest.(check bool) "requests counted" true (Http.requests h >= 8))

(* ---- data-dir lock ---- *)

let dir_lock () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "avq_dirlock_%d" (Unix.getpid ()))
  in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  let lock = Dir_lock.acquire dir in
  let lock_file = Filename.concat dir "LOCK" in
  Alcotest.(check bool) "lock file exists" true (Sys.file_exists lock_file);
  let pid_in_file =
    let ic = open_in lock_file in
    let line = input_line ic in
    close_in ic;
    int_of_string (String.trim line)
  in
  Alcotest.(check int) "pid recorded" (Unix.getpid ()) pid_in_file;
  (* a second acquire — same process or another — must fail typed *)
  (match Dir_lock.acquire dir with
  | _ -> Alcotest.fail "second acquire must fail"
  | exception Avq_error.Error (Avq_error.Unavailable msg) ->
    check_contains "error names the dir" msg dir);
  Dir_lock.release lock;
  Alcotest.(check bool) "lock file removed" false (Sys.file_exists lock_file);
  (* released: the next acquire succeeds *)
  let lock2 = Dir_lock.acquire dir in
  Dir_lock.release lock2

(* ---- Prometheus histogram export shape ---- *)

let prometheus_buckets () =
  let m = Metrics.create () in
  let h = Metrics.histogram m ~help:"test" ~buckets:[| 1.; 10.; 100. |] "t_ms" in
  List.iter (Metrics.Histogram.observe h) [ 0.5; 5.; 5.; 50.; 500. ];
  let body = Metrics.to_prometheus m in
  (* cumulative _bucket lines with le labels, then +Inf = _count, _sum *)
  check_contains "le=1" body "t_ms_bucket{le=\"1\"} 1";
  check_contains "le=10 cumulative" body "t_ms_bucket{le=\"10\"} 3";
  check_contains "le=100 cumulative" body "t_ms_bucket{le=\"100\"} 4";
  check_contains "le=+Inf" body "t_ms_bucket{le=\"+Inf\"} 5";
  check_contains "_count" body "t_ms_count 5";
  check_contains "_sum" body "t_ms_sum 560.5";
  (* the bucket lines really are monotonically non-decreasing *)
  let bucket_counts =
    List.filter_map
      (fun line ->
        match String.index_opt line '}' with
        | Some i when contains line "t_ms_bucket{" ->
          Some
            (float_of_string
               (String.trim
                  (String.sub line (i + 1) (String.length line - i - 1))))
        | _ -> None)
      (String.split_on_char '\n' body)
  in
  Alcotest.(check int) "all bucket lines seen" 4 (List.length bucket_counts);
  Alcotest.(check bool) "cumulative monotone" true
    (List.sort compare bucket_counts = bucket_counts)

let tests =
  [
    Alcotest.test_case "stmt_stats: record + snapshot" `Quick stats_basics;
    Alcotest.test_case "stmt_stats: bounded cardinality (LRU)" `Quick
      stats_eviction;
    Alcotest.test_case "stmt_stats: LRU keeps the hot entry" `Quick
      stats_lru_keeps_hot;
    Alcotest.test_case "stmt_stats: reset keeps meta counters" `Quick
      stats_reset_keeps_counters;
    Alcotest.test_case "stmt_stats: concurrent domains lose nothing" `Quick
      stats_across_domains;
    Alcotest.test_case "pool soak: sum(calls) = avq_statements_total" `Quick
      pool_soak_sum_invariant;
    Alcotest.test_case "avq_stat_statements via SQL" `Quick sysview_statements;
    Alcotest.test_case "avq_stat_tables + avq_stat_matviews" `Quick
      sysview_tables_and_matviews;
    Alcotest.test_case "system views snapshot per statement, cache-friendly"
      `Quick sysview_snapshot_is_per_statement;
    Alcotest.test_case "system views are not checkpointed" `Quick
      sysview_not_checkpointed;
    Alcotest.test_case "\\stats directive" `Quick stats_directive;
    Alcotest.test_case "system views over the TCP protocol" `Quick
      server_sysviews_over_tcp;
    Alcotest.test_case "slow log carries fingerprint + sid" `Quick
      slow_log_fields;
    Alcotest.test_case "HTTP /metrics /healthz /statements" `Quick
      http_endpoints;
    Alcotest.test_case "data-dir lock" `Quick dir_lock;
    Alcotest.test_case "Prometheus cumulative buckets" `Quick
      prometheus_buckets;
  ]
