(* E20 — network front end: latency and throughput vs connection count
   (extension).  An in-process [Server] over a 4-worker pool is driven by
   the closed-loop load generator at 1, 4, 16 and 64 concurrent
   connections, reporting throughput and p50/p95/p99 statement latency;
   one open-loop run offers a fixed rate so latency is measured under
   constant offered load rather than self-clocked; and one run against a
   deliberately tiny admission queue shows over-admission being rejected
   (typed, counted) instead of buffered.  Temps must be zero after every
   drain. *)

let conn_counts = [ 1; 4; 16; 64 ]
let statements_per_conn = 40
let workers = 4

let sqls =
  [
    "SELECT e.dno AS dno, COUNT(*) AS heads FROM emp e WHERE e.sal > 1500 \
     GROUP BY e.dno";
    "SELECT e.dno AS dno, AVG(e.sal) AS avg_sal FROM emp e WHERE e.age > 30 \
     GROUP BY e.dno";
    "SELECT e.dno AS dno, AVG(e.sal) AS avg_sal FROM emp e, dept d WHERE \
     e.dno = d.dno AND d.budget > 100000 GROUP BY e.dno";
  ]

let make_catalog () =
  Emp_dept.load
    ~params:{ Emp_dept.default_params with Emp_dept.emps = 4000; seed = 5 } ()

let with_server ~max_queue f =
  Lifecycle.reset ();
  let cat = make_catalog () in
  let svc = Service.create cat in
  let result =
    Service.Pool.with_pool ~workers svc (fun pool ->
        let srv =
          Server.start
            ~config:{ Server.default_config with Server.port = 0; max_queue }
            pool
        in
        Fun.protect
          ~finally:(fun () ->
            Server.stop srv;
            Lifecycle.reset ())
          (fun () -> f cat srv))
  in
  result

let loadgen_config port conns mode =
  {
    Loadgen.default_config with
    Loadgen.port;
    connections = conns;
    statements = statements_per_conn;
    mode;
    sqls;
  }

let record ~name ~config (stats : Loadgen.stats) srv =
  Bench_util.Json.record ~name
    ~config:(config @ [ ("cores", string_of_int (Domain.recommended_domain_count ())) ])
    ~extra:
      [
        ("ok", float_of_int stats.Loadgen.ok);
        ("errors", float_of_int stats.Loadgen.errors);
        ("rejected", float_of_int stats.Loadgen.rejected);
        ("admitted", float_of_int (Server.admitted srv));
        ("p50_ms", Loadgen.percentile stats.Loadgen.latencies_ms 50.);
        ("p95_ms", Loadgen.percentile stats.Loadgen.latencies_ms 95.);
        ("p99_ms", Loadgen.percentile stats.Loadgen.latencies_ms 99.);
      ]
    ~io:0 ~wall_ms:stats.Loadgen.wall_ms
    ~rows_per_sec:(Loadgen.throughput stats) ()

let run () =
  Printf.printf "E20: avq serve under concurrent connections\n";
  let rows = ref [] in
  (* closed loop: each connection self-clocks; capacity + latency curve *)
  List.iter
    (fun conns ->
      (* queue sized above the connection count: this is the capacity curve;
         the dedicated over-admission run below shows the rejection path *)
      with_server ~max_queue:128 (fun cat srv ->
          let stats =
            Loadgen.run (loadgen_config (Server.port srv) conns Loadgen.Closed)
          in
          let temps = Storage.live_temps (Catalog.storage cat) in
          if stats.Loadgen.errors > 0 then
            Printf.printf "!! %d unexpected statement errors at %d conns\n"
              stats.Loadgen.errors conns;
          if temps <> 0 then
            Printf.printf "!! %d leaked temps at %d conns\n" temps conns;
          record
            ~name:(Printf.sprintf "serve.closed.%dconns" conns)
            ~config:
              [
                ("mode", "closed");
                ("connections", string_of_int conns);
                ("workers", string_of_int workers);
              ]
            stats srv;
          rows :=
            [
              "closed";
              string_of_int conns;
              string_of_int stats.Loadgen.ok;
              string_of_int stats.Loadgen.rejected;
              Bench_util.f1 (Loadgen.throughput stats);
              Bench_util.f2 (Loadgen.percentile stats.Loadgen.latencies_ms 50.);
              Bench_util.f2 (Loadgen.percentile stats.Loadgen.latencies_ms 95.);
              Bench_util.f2 (Loadgen.percentile stats.Loadgen.latencies_ms 99.);
            ]
            :: !rows))
    conn_counts;
  (* open loop: fixed offered rate, latency under load instead of self-clock *)
  with_server ~max_queue:Server.default_config.Server.max_queue (fun _cat srv ->
      let stats =
        Loadgen.run
          (loadgen_config (Server.port srv) 16 (Loadgen.Open_rate 400.))
      in
      record ~name:"serve.open.16conns.400sps"
        ~config:
          [ ("mode", "open"); ("connections", "16"); ("rate_sps", "400") ]
        stats srv;
      rows :=
        [
          "open@400/s";
          "16";
          string_of_int stats.Loadgen.ok;
          string_of_int stats.Loadgen.rejected;
          Bench_util.f1 (Loadgen.throughput stats);
          Bench_util.f2 (Loadgen.percentile stats.Loadgen.latencies_ms 50.);
          Bench_util.f2 (Loadgen.percentile stats.Loadgen.latencies_ms 95.);
          Bench_util.f2 (Loadgen.percentile stats.Loadgen.latencies_ms 99.);
        ]
        :: !rows);
  (* over-admission: a 2-deep queue under 32 connections must reject (typed),
     not buffer without bound *)
  with_server ~max_queue:2 (fun _cat srv ->
      let stats =
        Loadgen.run (loadgen_config (Server.port srv) 32 Loadgen.Closed)
      in
      if stats.Loadgen.rejected = 0 then
        Printf.printf
          "!! expected admission rejections with max_queue=2 at 32 conns\n";
      record ~name:"serve.overadmission.32conns.queue2"
        ~config:
          [ ("mode", "closed"); ("connections", "32"); ("max_queue", "2") ]
        stats srv;
      rows :=
        [
          "closed,q=2";
          "32";
          string_of_int stats.Loadgen.ok;
          string_of_int stats.Loadgen.rejected;
          Bench_util.f1 (Loadgen.throughput stats);
          Bench_util.f2 (Loadgen.percentile stats.Loadgen.latencies_ms 50.);
          Bench_util.f2 (Loadgen.percentile stats.Loadgen.latencies_ms 95.);
          Bench_util.f2 (Loadgen.percentile stats.Loadgen.latencies_ms 99.);
        ]
        :: !rows);
  Bench_util.print_table ~title:"E20: serve throughput & latency percentiles"
    ~header:
      [ "mode"; "conns"; "ok"; "rejected"; "stmts/s"; "p50ms"; "p95ms"; "p99ms" ]
    (List.rev !rows)
