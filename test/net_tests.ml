(* avq.net: wire framing, protocol codec, lifecycle state machine, and the
   TCP server end to end — sessions, admission control, disconnect
   cancellation, and a connection-churn soak that must leak nothing. *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let small =
  { Emp_dept.default_params with Emp_dept.emps = 1200; depts = 4; seed = 11 }

let make_service () = Service.create (Emp_dept.load ~params:small ())

let fast_sql =
  "SELECT e.dno AS dno, COUNT(*) AS heads FROM emp e WHERE e.sal > 1000 GROUP \
   BY e.dno"

(* a self-join blowup: enough batches that timeouts, cancellation and abort
   all get observed at a boundary before it finishes.  Three-way on purpose:
   the two-way pair count (~360k joined rows) completes in ~1 ms on a fast
   host, racing the 1 ms deadline the tests arm; the ~100M-row triple count
   cannot finish before any deadline check fires, on any host.  No test
   reads its result — every use expects a timeout, a cancel, or neither
   outcome specifically. *)
let slow_sql =
  "SELECT e1.dno AS dno, COUNT(*) AS triples FROM emp e1, emp e2, emp e3 \
   WHERE e1.dno = e2.dno AND e2.dno = e3.dno GROUP BY e1.dno"

(* ---- wire framing ---- *)

let wire_roundtrip () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let payloads = [ ""; "x"; String.make 70_000 'q'; "embedded\nnewline\x00nul" ] in
  List.iter (fun p -> Wire.write_frame a p) payloads;
  List.iter
    (fun expect ->
      match Wire.read_frame b with
      | Some got -> Alcotest.(check string) "frame payload" expect got
      | None -> Alcotest.fail "unexpected EOF")
    payloads;
  Unix.close a;
  Alcotest.(check bool) "clean EOF at boundary" true (Wire.read_frame b = None);
  Unix.close b

let wire_mid_frame_eof () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* a 4-byte length promising 100 bytes, then only 3 before EOF *)
  let hdr = Bytes.create 4 in
  Bytes.set_int32_be hdr 0 100l;
  ignore (Unix.write a hdr 0 4);
  ignore (Unix.write_substring a "abc" 0 3);
  Unix.close a;
  Alcotest.check_raises "mid-frame EOF is a protocol error"
    (Wire.Protocol_error "peer closed mid-frame")
    (fun () -> ignore (Wire.read_frame b));
  Unix.close b

let wire_bad_length () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let hdr = Bytes.create 4 in
  Bytes.set_int32_be hdr 0 (Int32.of_int (Wire.max_frame + 1));
  ignore (Unix.write a hdr 0 4);
  (match Wire.read_frame b with
  | exception Wire.Protocol_error _ -> ()
  | _ -> Alcotest.fail "oversized length must be rejected");
  (match Wire.write_frame a (String.make 1 'x') with
  | () -> ()
  | exception _ -> Alcotest.fail "small frame must be writable");
  Alcotest.check_raises "oversized write refused"
    (Wire.Protocol_error
       (Printf.sprintf "frame too large: %d bytes" (Wire.max_frame + 1)))
    (fun () ->
      (* don't actually allocate 16 MiB of payload writes: build once *)
      Wire.write_frame a (String.make (Wire.max_frame + 1) 'x'));
  Unix.close a;
  Unix.close b

(* ---- protocol codec ---- *)

let req_roundtrip r =
  Alcotest.(check bool)
    "request roundtrips" true
    (Protocol.decode_request (Protocol.encode_request r) = r)

let reply_roundtrip r =
  Alcotest.(check bool)
    "reply roundtrips" true
    (Protocol.decode_reply (Protocol.encode_reply r) = r)

let protocol_requests () =
  List.iter req_roundtrip
    [
      Protocol.Query "SELECT 1";
      Protocol.Query "multi\nline\nsql;;";
      Protocol.Set ("timeout_ms", "50");
      Protocol.Set ("dop", "default");
      Protocol.Prepare ("q1", "SELECT e.dno AS dno, COUNT(*) AS c FROM emp e\nGROUP BY e.dno");
      Protocol.Exec_prepared ("q1", []);
      Protocol.Exec_prepared
        ( "q1",
          [
            Value.Int 42;
            Value.Float 0.1;
            Value.String "O'Brien, with: colons\nand newlines";
            Value.Bool true;
            Value.Date 19000;
          ] );
      Protocol.Close;
    ]

let protocol_replies () =
  List.iter reply_roundtrip
    [
      Protocol.Hello { server = "avq"; workers = 4 };
      Protocol.Result { source = "hit"; rows = 12; ms = 3.25; body = "dno c\n1 2\n" };
      Protocol.Result { source = "tag"; rows = 0; ms = 0.; body = "INSERT 3" };
      Protocol.Err { kind = "timeout"; detail = "kind=timeout limit_ms=50" };
    ]

let protocol_values () =
  List.iter
    (fun v ->
      Alcotest.(check bool)
        "value roundtrips" true
        (Protocol.parse_value (Protocol.render_value v) = v))
    [
      Value.Int 0;
      Value.Int min_int;
      Value.Float 0.1;
      Value.Float (-1e300);
      Value.Float (1. /. 3.);
      Value.String "";
      Value.String "i:looks like a tag";
      Value.Bool false;
      Value.Date 0;
    ]

let protocol_bad_input () =
  List.iter
    (fun s ->
      match Protocol.decode_request s with
      | _ -> Alcotest.fail ("must reject request " ^ String.escaped s)
      | exception Protocol.Protocol_error _ -> ())
    [ ""; "zunknown"; "sno-separator"; "ename\n3:i:1" (* unterminated *) ];
  List.iter
    (fun s ->
      match Protocol.decode_reply s with
      | _ -> Alcotest.fail ("must reject reply " ^ String.escaped s)
      | exception Protocol.Protocol_error _ -> ())
    [ ""; "Havq"; "Rbad header\nbody"; "Zx" ]

(* ---- lifecycle state machine ---- *)

let lifecycle_phases () =
  Lifecycle.reset ();
  Alcotest.(check bool) "starts running" false (Lifecycle.draining ());
  Lifecycle.request_drain ();
  Alcotest.(check bool) "draining" true (Lifecycle.draining ());
  Alcotest.(check bool) "not yet aborting" false (Lifecycle.aborting ());
  Lifecycle.request_abort ();
  Alcotest.(check bool) "aborting" true (Lifecycle.aborting ());
  (* monotone: a drain request cannot de-escalate an abort *)
  Lifecycle.request_drain ();
  Alcotest.(check bool) "abort sticks" true (Lifecycle.aborting ());
  Alcotest.(check int) "no signal, exit 0" 0 (Lifecycle.exit_code ());
  Lifecycle.reset ();
  Alcotest.(check bool) "reset" false (Lifecycle.draining ())

let lifecycle_hooks () =
  Lifecycle.reset ();
  let order = ref [] in
  Lifecycle.at_shutdown (fun () -> order := "first" :: !order);
  Lifecycle.at_shutdown (fun () -> order := "second" :: !order);
  Lifecycle.at_shutdown (fun () -> failwith "a failing hook must not stop the rest");
  Lifecycle.run_hooks ();
  (* LIFO: last registered runs first; [order] accumulates by consing *)
  Alcotest.(check (list string)) "LIFO order" [ "first"; "second" ] !order;
  Lifecycle.run_hooks ();
  Alcotest.(check (list string)) "hooks run once" [ "first"; "second" ] !order;
  Lifecycle.reset ()

let lifecycle_gates_exec () =
  Lifecycle.reset ();
  let cat = Emp_dept.load ~params:small () in
  let ctx = Exec_ctx.create cat in
  Lifecycle.request_abort ();
  Alcotest.check_raises "executors observe a lifecycle abort"
    (Avq_error.Error Avq_error.Cancelled)
    (fun () -> Exec_ctx.check ctx);
  Lifecycle.reset ()

(* ---- server ---- *)

let with_server ?(config = { Server.default_config with Server.port = 0 })
    ?(workers = 2) ?service f =
  Lifecycle.reset ();
  let svc = match service with Some s -> s | None -> make_service () in
  Service.Pool.with_pool ~workers svc (fun pool ->
      let srv = Server.start ~config pool in
      Fun.protect
        ~finally:(fun () ->
          Server.stop srv;
          Lifecycle.reset ())
        (fun () -> f svc srv))

let connect srv = Client.connect ~port:(Server.port srv) ()

let expect_rows what = function
  | Protocol.Result { rows; _ } ->
    Alcotest.(check bool) (what ^ " returns rows") true (rows > 0)
  | Protocol.Err { kind; detail } -> Alcotest.fail (what ^ ": " ^ kind ^ ": " ^ detail)
  | Protocol.Hello _ -> Alcotest.fail (what ^ ": unexpected hello")

let expect_err what kind = function
  | Protocol.Err { kind = k; _ } -> Alcotest.(check string) what kind k
  | Protocol.Result _ -> Alcotest.fail (what ^ ": unexpected success")
  | Protocol.Hello _ -> Alcotest.fail (what ^ ": unexpected hello")

let server_hello_query () =
  with_server (fun svc srv ->
      let c = connect srv in
      Alcotest.(check string) "server name" "avq" (Client.server c);
      Alcotest.(check int) "advertised workers" 2 (Client.workers c);
      expect_rows "plain query" (Client.query c fast_sql);
      expect_rows "repeat (cache)" (Client.query c fast_sql);
      (match Client.query c "SELECT nonsense FROM nowhere" with
      | Protocol.Err _ -> ()
      | _ -> Alcotest.fail "bad SQL must fail");
      expect_rows "session survives a bad statement" (Client.query c fast_sql);
      Client.close c;
      let s = Service.stats svc in
      Alcotest.(check bool) "cache was shared and hit" true (s.Service.hits >= 1);
      Alcotest.(check int) "admitted = statements" 4 (Server.admitted srv))

let server_session_vars () =
  with_server (fun _svc srv ->
      let c = connect srv in
      (match Client.set c "timeout_ms" "1" with
      | Protocol.Result _ -> ()
      | _ -> Alcotest.fail "SET must succeed");
      expect_err "deadline trips" "timeout" (Client.query c slow_sql);
      expect_err "EXPLAIN ANALYZE honours the deadline" "timeout"
        (Client.query c ("EXPLAIN ANALYZE " ^ slow_sql));
      (match Client.set c "timeout_ms" "default" with
      | Protocol.Result _ -> ()
      | _ -> Alcotest.fail "SET default must succeed");
      expect_rows "restored default" (Client.query c fast_sql);
      expect_err "unknown variable" "bad-statement" (Client.set c "nope" "1");
      expect_err "bad value" "bad-statement" (Client.set c "dop" "zero-ish");
      (match Client.set c "dop" "2" with
      | Protocol.Result _ -> ()
      | _ -> Alcotest.fail "SET dop must succeed");
      expect_rows "parallel-eligible session still answers"
        (Client.query c fast_sql);
      Client.close c)

let server_prepared () =
  with_server (fun _svc srv ->
      let c = connect srv in
      let template =
        "SELECT e.dno AS dno, AVG(e.sal) AS avg_sal FROM emp e WHERE e.age > 30 \
         AND e.sal > 1000 GROUP BY e.dno"
      in
      (match Client.prepare c "q1" template with
      | Protocol.Result _ -> ()
      | Protocol.Err { detail; _ } -> Alcotest.fail ("prepare: " ^ detail)
      | _ -> Alcotest.fail "prepare: unexpected reply");
      expect_rows "exec with template params" (Client.exec_prepared c "q1" []);
      expect_rows "exec with fresh params"
        (Client.exec_prepared c "q1" [ Value.Int 40; Value.Int 2000 ]);
      expect_err "unknown statement" "bad-statement"
        (Client.exec_prepared c "nope" []);
      (* prepared statements are per-session: a second connection can't see q1 *)
      let c2 = connect srv in
      expect_err "per-session namespace" "bad-statement"
        (Client.exec_prepared c2 "q1" []);
      Client.close c2;
      Client.close c)

let server_directives () =
  with_server (fun _svc srv ->
      let c = connect srv in
      expect_rows "warmup" (Client.query c fast_sql);
      (match Client.query c "\\metrics" with
      | Protocol.Result { source = "text"; body; _ } ->
        Alcotest.(check bool)
          "metrics body mentions the plan cache" true
          (contains body "plancache")
      | _ -> Alcotest.fail "\\metrics must render text");
      (match Client.query c "INSERT INTO dept VALUES (99, 12345, 'netdept')" with
      | Protocol.Result { body; _ } ->
        Alcotest.(check string) "insert tag" "INSERT 1" body
      | Protocol.Err { detail; _ } -> Alcotest.fail ("insert: " ^ detail)
      | _ -> Alcotest.fail "insert: unexpected reply");
      (match Client.query c ("EXPLAIN ANALYZE " ^ fast_sql) with
      | Protocol.Result { source = "text"; body; _ } ->
        Alcotest.(check bool) "analysis is non-empty" true (String.length body > 0)
      | Protocol.Err { detail; _ } -> Alcotest.fail ("explain analyze: " ^ detail)
      | _ -> Alcotest.fail "explain analyze: unexpected reply");
      Client.close c)

let server_admission_rejects () =
  (* max_queue = 0: every statement is over the admission bound, so the
     typed rejection path is exercised deterministically *)
  with_server
    ~config:{ Server.default_config with Server.port = 0; max_queue = 0 }
    (fun svc srv ->
      let c = connect srv in
      expect_err "over admission" "resource-exceeded" (Client.query c fast_sql);
      expect_err "still rejected" "resource-exceeded" (Client.query c fast_sql);
      Client.close c;
      Alcotest.(check int) "nothing admitted" 0 (Server.admitted srv);
      Alcotest.(check int) "rejections counted" 2 (Server.rejected srv);
      let s = Service.stats svc in
      Alcotest.(check int)
        "typed errors counted on the service" 2
        s.Service.errors.Service.resource_exceeded)

let server_drain_rejects () =
  with_server (fun svc srv ->
      let c = connect srv in
      expect_rows "before drain" (Client.query c fast_sql);
      Lifecycle.request_drain ();
      expect_err "draining server is unavailable" "unavailable"
        (Client.query c fast_sql);
      Client.close c;
      (* new connections are refused outright once draining *)
      (match Client.connect ~port:(Server.port srv) () with
      | c2 ->
        Client.abort c2;
        Alcotest.fail "draining server must refuse new connections"
      | exception Wire.Protocol_error _ -> ());
      let s = Service.stats svc in
      Alcotest.(check bool)
        "unavailable counted" true
        (s.Service.errors.Service.unavailable >= 1))

let server_connection_cap () =
  with_server
    ~config:
      { Server.default_config with Server.port = 0; max_connections = 1 }
    (fun _svc srv ->
      let c = connect srv in
      (* the acceptor refuses the second session with a typed error *)
      (match Client.connect ~port:(Server.port srv) () with
      | c2 ->
        Client.abort c2;
        Alcotest.fail "connection cap must refuse the second session"
      | exception Wire.Protocol_error _ -> ());
      expect_rows "first session unaffected" (Client.query c fast_sql);
      Client.close c;
      (* capacity freed: connecting works again *)
      let rec retry n =
        match Client.connect ~port:(Server.port srv) () with
        | c3 -> c3
        | exception Wire.Protocol_error _ when n > 0 ->
          Thread.delay 0.02;
          retry (n - 1)
      in
      let c3 = retry 100 in
      expect_rows "after release" (Client.query c3 fast_sql);
      Client.close c3)

let wait_for ?(timeout = 10.) what pred =
  let t0 = Unix.gettimeofday () in
  while (not (pred ())) && Unix.gettimeofday () -. t0 < timeout do
    Thread.delay 0.01
  done;
  Alcotest.(check bool) what true (pred ())

let server_disconnect_cancels () =
  with_server (fun svc srv ->
      let c = connect srv in
      (* fire a long statement and vanish without reading the reply: the
         handler must notice the dead socket and cancel the pool job *)
      Wire.write_frame (Client.fd c)
        (Protocol.encode_request (Protocol.Query slow_sql));
      Thread.delay 0.05;
      Client.abort c;
      wait_for "disconnect cancels the in-flight statement" (fun () ->
          (Service.stats svc).Service.errors.Service.cancellations >= 1
          || Server.in_flight srv = 0);
      wait_for "admission slot released" (fun () -> Server.in_flight srv = 0))

let server_reply_frame_cap () =
  (* a table of fat strings whose full scan renders to > 16 MiB: the reply
     must come back as a typed resource error on a still-usable session,
     not a torn connection *)
  let cat = Catalog.create () in
  let pad = String.make 20_000 'x' in
  ignore
    (Catalog.add_table cat ~name:"big"
       ~columns:[ ("id", Datatype.Int); ("pad", Datatype.String) ]
       ~pk:[ "id" ]
       (List.init 1000 (fun i -> [| Value.Int i; Value.String pad |])));
  let svc = Service.create cat in
  with_server ~service:svc (fun svc srv ->
      let c = connect srv in
      (match Client.query c "SELECT b.id AS id, b.pad AS pad FROM big b" with
      | Protocol.Err { kind; detail } ->
        Alcotest.(check string) "typed kind" "resource-exceeded" kind;
        Alcotest.(check bool) "detail names the frame cap" true
          (contains detail "frame")
      | _ -> Alcotest.fail "oversized reply must fail typed");
      expect_rows "session survives the oversized reply"
        (Client.query c "SELECT COUNT(*) AS n FROM big b");
      Client.close c;
      let s = Service.stats svc in
      Alcotest.(check bool) "counted in the error taxonomy" true
        (s.Service.errors.Service.resource_exceeded >= 1))

(* ---- lifecycle x durability: an interrupted write leaves a recoverable,
   consistent state (the view is either old or new, never partial) ---- *)

let drain_mid_refresh_recoverable () =
  Lifecycle.reset ();
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "avq_net_wal_%d" (Unix.getpid ()))
  in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  let seed () = Emp_dept.load ~params:small () in
  let cat, mviews, writer, _ = Recovery.recover ~data_dir:dir ~meta:"net" ~seed () in
  let svc = Service.create ~mviews cat in
  Service.attach_wal svc ~data_dir:dir writer;
  ignore
    (Service.exec_statement svc
       ("CREATE MATERIALIZED VIEW by_dept AS SELECT e.dno AS dno, COUNT(*) AS \
         c, SUM(e.sal) AS s FROM emp e GROUP BY e.dno"));
  ignore (Service.exec_statement svc "INSERT INTO emp VALUES (990001, 1, 5000, 31)");
  let probe svc =
    let _, rel, _ = Service.submit svc fast_sql in
    Format.asprintf "%a" Relation.pp rel
  in
  (* abort engaged before the refresh starts: the executor cancels it at its
     first poll point, leaving the WAL's Refresh record uncommitted *)
  Lifecycle.request_abort ();
  let refresh_outcome =
    match Service.exec_statement svc "REFRESH MATERIALIZED VIEW by_dept" with
    | tag -> `Completed tag
    | exception _ -> `Aborted
  in
  Lifecycle.reset ();
  let acked = probe svc in
  let cat2, mviews2, w2, _ = Recovery.recover ~data_dir:dir ~meta:"net" ~seed () in
  Wal.close w2;
  let svc2 = Service.create ~mviews:mviews2 cat2 in
  (* whatever the interrupted statement's fate, recovery agrees with the
     acknowledged state — never a half-applied refresh *)
  Alcotest.(check string) "recovered state matches acknowledged state" acked
    (probe svc2);
  (match refresh_outcome with
  | `Aborted -> ()
  | `Completed _ -> Alcotest.fail "abort must cancel the refresh");
  Alcotest.(check int) "no temp leaks" 0
    (Storage.live_temps (Catalog.storage cat2));
  Lifecycle.reset ()

(* ---- connection-churn soak ---- *)

let soak () =
  let config =
    { Server.default_config with Server.port = 0; max_connections = 32 }
  in
  Lifecycle.reset ();
  let svc = make_service () in
  let cat = Service.catalog svc in
  Service.Pool.with_pool ~workers:3 svc (fun pool ->
      let srv = Server.start ~config pool in
      let port = Server.port srv in
      let failures = Atomic.make 0 in
      let fail () = Atomic.incr failures in
      let client_life i round =
        let c = Client.connect ~port () in
        match (i + round) mod 4 with
        | 0 ->
          (* plain mixed statements *)
          (match Client.query c fast_sql with
          | Protocol.Result _ -> ()
          | _ -> fail ());
          (match Client.query c fast_sql with
          | Protocol.Result _ -> ()
          | _ -> fail ());
          Client.close c
        | 1 ->
          (* prepared round trip *)
          (match Client.prepare c "s" fast_sql with
          | Protocol.Result _ -> (
            match Client.exec_prepared c "s" [] with
            | Protocol.Result _ -> ()
            | _ -> fail ())
          | _ -> fail ());
          Client.close c
        | 2 ->
          (* hits its deadline: must come back as a typed timeout *)
          (match Client.set c "timeout_ms" "1" with
          | Protocol.Result _ -> ()
          | _ -> fail ());
          (match Client.query c slow_sql with
          | Protocol.Err { kind = "timeout"; _ } -> ()
          | _ -> fail ());
          Client.close c
        | _ ->
          (* cancelled by disconnect mid-statement *)
          Wire.write_frame (Client.fd c)
            (Protocol.encode_request (Protocol.Query slow_sql));
          Client.abort c
      in
      let rounds = 3 in
      for round = 0 to rounds - 1 do
        let threads =
          List.init 8 (fun i ->
              Thread.create
                (fun () -> try client_life i round with _ -> fail ())
                ())
        in
        List.iter Thread.join threads
      done;
      Alcotest.(check int) "no soak-client failures" 0 (Atomic.get failures);
      wait_for "all admission slots released" (fun () -> Server.in_flight srv = 0);
      Server.stop srv;
      Alcotest.(check int) "no sessions survive the drain" 0
        (Server.connections srv);
      let s = Service.stats svc in
      Alcotest.(check bool) "cache counters add up exactly" true
        (s.Service.hits + s.Service.rebinds + s.Service.misses
         + s.Service.recost_fallbacks + s.Service.rebind_conflicts
        = s.Service.calls);
      Alcotest.(check int) "zero stale hits" 0 s.Service.stale_hits;
      Alcotest.(check int) "zero temp-file leaks" 0
        (Storage.live_temps (Catalog.storage cat)));
  Lifecycle.reset ()

let tests =
  [
    Alcotest.test_case "wire: frame roundtrip + clean EOF" `Quick wire_roundtrip;
    Alcotest.test_case "wire: mid-frame EOF is typed" `Quick wire_mid_frame_eof;
    Alcotest.test_case "wire: length cap enforced" `Quick wire_bad_length;
    Alcotest.test_case "protocol: request roundtrips" `Quick protocol_requests;
    Alcotest.test_case "protocol: reply roundtrips" `Quick protocol_replies;
    Alcotest.test_case "protocol: value tags lossless" `Quick protocol_values;
    Alcotest.test_case "protocol: malformed input rejected" `Quick
      protocol_bad_input;
    Alcotest.test_case "lifecycle: phases escalate monotonically" `Quick
      lifecycle_phases;
    Alcotest.test_case "lifecycle: hooks LIFO, once, contained" `Quick
      lifecycle_hooks;
    Alcotest.test_case "lifecycle: abort reaches executor checks" `Quick
      lifecycle_gates_exec;
    Alcotest.test_case "server: hello, queries, shared cache" `Quick
      server_hello_query;
    Alcotest.test_case "server: SET session variables" `Quick server_session_vars;
    Alcotest.test_case "server: prepared statements per session" `Quick
      server_prepared;
    Alcotest.test_case "server: directives, writes, explain analyze" `Quick
      server_directives;
    Alcotest.test_case "server: admission control rejects typed" `Quick
      server_admission_rejects;
    Alcotest.test_case "server: draining rejects with unavailable" `Quick
      server_drain_rejects;
    Alcotest.test_case "server: connection cap" `Quick server_connection_cap;
    Alcotest.test_case "server: disconnect cancels in-flight work" `Quick
      server_disconnect_cancels;
    Alcotest.test_case "server: oversized reply fails typed" `Quick
      server_reply_frame_cap;
    Alcotest.test_case "lifecycle: abort mid-refresh is recoverable" `Quick
      drain_mid_refresh_recoverable;
    Alcotest.test_case "server: connection-churn soak leaks nothing" `Slow soak;
  ]
