(* avq — command-line front end: parse, optimize, explain and run SQL with
   aggregate views over the built-in synthetic databases. *)

open Cmdliner

(* ---- shared options ---- *)

let algo_conv =
  Arg.enum
    [
      ("traditional", Optimizer.Traditional);
      ("greedy", Optimizer.Greedy_conservative);
      ("paper", Optimizer.Paper);
    ]

let algo =
  Arg.(
    value
    & opt algo_conv Optimizer.Paper
    & info [ "a"; "algo" ] ~docv:"ALGO"
        ~doc:"Optimization algorithm: $(b,traditional), $(b,greedy) or $(b,paper).")

let db_conv = Arg.enum [ ("empdept", `Empdept); ("tpcd", `Tpcd); ("star", `Star) ]

let db =
  Arg.(
    value
    & opt db_conv `Empdept
    & info [ "d"; "db" ] ~docv:"DB"
        ~doc:
          "Built-in database: $(b,empdept) (the paper's example schema), $(b,tpcd) \
           or $(b,star).")

let scale =
  Arg.(
    value
    & opt int 1
    & info [ "s"; "scale" ] ~docv:"N" ~doc:"Scale factor for the synthetic data.")

let seed =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Data generator seed.")

let work_mem =
  Arg.(
    value
    & opt int 32
    & info [ "work-mem" ] ~docv:"PAGES" ~doc:"Operator memory budget in pages.")

let sql_arg =
  Arg.(
    value
    & pos 0 (some string) None
    & info [] ~docv:"SQL" ~doc:"SQL text; omit to read from stdin.")

let db_name = function
  | `Empdept -> "empdept"
  | `Tpcd -> "tpcd"
  | `Star -> "star"

let load_db db scale seed =
  match db with
  | `Empdept ->
    let p = Emp_dept.default_params in
    Emp_dept.load
      ~params:{ p with emps = p.emps * scale; depts = p.depts * scale; seed }
      ()
  | `Tpcd ->
    let p = Tpcd.default_params in
    Tpcd.load ~params:{ p with customers = p.customers * scale; seed } ()
  | `Star ->
    let p = Star.default_params in
    Star.load ~params:{ p with days = p.days * scale; seed } ()

let read_sql = function
  | Some s -> s
  | None -> In_channel.input_all In_channel.stdin

let options algorithm work_mem =
  { Optimizer.default_options with algorithm; work_mem }

let with_query db scale seed sql f =
  let cat = load_db db scale seed in
  match Binder.bind_sql cat (read_sql sql) with
  | query -> f cat query
  | exception Binder.Bind_error msg ->
    Format.eprintf "bind error: %s@." msg;
    exit 1
  | exception Parser.Parse_error (msg, off) ->
    Format.eprintf "parse error at offset %d: %s@." off msg;
    exit 1
  | exception Lexer.Lex_error (msg, off) ->
    Format.eprintf "lex error at offset %d: %s@." off msg;
    exit 1

(* ---- commands ---- *)

let explain_cmd =
  let run algo db scale seed work_mem sql =
    with_query db scale seed sql (fun cat query ->
        Format.printf "Canonical form:@.%a@.@." Block.pp query;
        let r = Optimizer.optimize ~options:(options algo work_mem) cat query in
        Format.printf "Plan (estimated %a):@.%a@." Cost_model.pp_est r.Optimizer.est
          Physical.pp r.Optimizer.plan;
        Format.printf "@.Per-node estimates:@.%a" (Explain.pp cat ~work_mem)
          r.Optimizer.plan;
        Format.printf "@.Search effort: %a@." Search_stats.pp r.Optimizer.search;
        match r.Optimizer.report with
        | None -> ()
        | Some rep ->
          Format.printf "Minimal invariant sets:@.";
          List.iter
            (fun (v, aliases) ->
              Format.printf "  %s: {%s}@." v (String.concat ", " aliases))
            rep.Paper_opt.minimal_sets;
          Format.printf "Chosen pull-up sets:@.";
          List.iter
            (fun (v, w) ->
              Format.printf "  %s: {%s}@." v (String.concat ", " (List.map fst w)))
            rep.Paper_opt.chosen_w)
  in
  let doc = "Show the canonical multi-block form and the chosen plan." in
  Cmd.v (Cmd.info "explain" ~doc)
    Term.(const run $ algo $ db $ scale $ seed $ work_mem $ sql_arg)

let run_cmd =
  let run algo db scale seed work_mem sql =
    with_query db scale seed sql (fun cat query ->
        let r = Optimizer.optimize ~options:(options algo work_mem) cat query in
        let ctx = Exec_ctx.create ~work_mem cat in
        let rel, io = Executor.run_measured ctx r.Optimizer.plan in
        Format.printf "%a@.@.(%a)@." Relation.pp rel Buffer_pool.pp_stats io)
  in
  let doc = "Optimize and execute a query, printing the result and measured IO." in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(const run $ algo $ db $ scale $ seed $ work_mem $ sql_arg)

let compare_cmd =
  let run db scale seed work_mem sql =
    with_query db scale seed sql (fun cat query ->
        Format.printf "%-14s %12s %12s %10s %8s@." "algorithm" "est-cost"
          "meas-reads" "meas-writes" "rows";
        List.iter
          (fun (name, algorithm) ->
            let r =
              Optimizer.optimize ~options:(options algorithm work_mem) cat query
            in
            let ctx = Exec_ctx.create ~work_mem cat in
            let rel, io = Executor.run_measured ctx r.Optimizer.plan in
            Format.printf "%-14s %12.1f %12d %10d %8d@." name
              r.Optimizer.est.Cost_model.cost io.Buffer_pool.reads
              io.Buffer_pool.writes (Relation.cardinality rel))
          [
            ("traditional", Optimizer.Traditional);
            ("greedy", Optimizer.Greedy_conservative);
            ("paper", Optimizer.Paper);
          ])
  in
  let doc = "Compare the three optimization algorithms on one query." in
  Cmd.v (Cmd.info "compare" ~doc)
    Term.(const run $ db $ scale $ seed $ work_mem $ sql_arg)

let tables_cmd =
  let run db scale seed =
    let cat = load_db db scale seed in
    List.iter
      (fun (tbl : Catalog.table) ->
        Format.printf "%-10s %a  pk=(%s)%s@." tbl.Catalog.tname Stats.pp_table
          tbl.Catalog.tstats
          (String.concat ", " tbl.Catalog.primary_key)
          (match tbl.Catalog.clustered with
           | Some c -> "  clustered on " ^ c
           | None -> ""))
      (Catalog.tables cat)
  in
  let doc = "List the tables of a built-in database with their statistics." in
  Cmd.v (Cmd.info "tables" ~doc) Term.(const run $ db $ scale $ seed)

let repl_cmd =
  let run db scale seed work_mem =
    let cat = load_db db scale seed in
    Format.printf
      "avq interactive shell — terminate statements with ';;'.@.Commands: \
       .tables  .quit@.";
    let buffer = Buffer.create 256 in
    let rec loop () =
      if Buffer.length buffer = 0 then Format.printf "avq> @?"
      else Format.printf "...> @?";
      match In_channel.input_line In_channel.stdin with
      | None -> ()
      | Some ".quit" -> ()
      | Some ".tables" ->
        List.iter
          (fun (tbl : Catalog.table) ->
            Format.printf "%-10s %a@." tbl.Catalog.tname Stats.pp_table
              tbl.Catalog.tstats)
          (Catalog.tables cat);
        loop ()
      | Some line ->
        Buffer.add_string buffer line;
        Buffer.add_char buffer '\n';
        let text = Buffer.contents buffer in
        let finished =
          match String.rindex_opt (String.trim text) ';' with
          | Some i ->
            i > 0 && (String.trim text).[i - 1] = ';'
          | None -> false
        in
        if not finished then loop ()
        else begin
          let sql =
            let t = String.trim text in
            String.sub t 0 (String.length t - 2)
          in
          Buffer.clear buffer;
          (try
             let query = Binder.bind_sql cat sql in
             let r =
               Optimizer.optimize
                 ~options:{ Optimizer.default_options with work_mem } cat query
             in
             let ctx = Exec_ctx.create ~work_mem cat in
             let rel, io = Executor.run_measured ctx r.Optimizer.plan in
             Format.printf "%a@.(%a)@." Relation.pp rel Buffer_pool.pp_stats io
           with
           | Binder.Bind_error msg -> Format.printf "bind error: %s@." msg
           | Parser.Parse_error (msg, off) ->
             Format.printf "parse error at %d: %s@." off msg
           | Lexer.Lex_error (msg, off) ->
             Format.printf "lex error at %d: %s@." off msg);
          loop ()
        end
    in
    loop ()
  in
  let doc = "Interactive SQL shell over a built-in database." in
  Cmd.v (Cmd.info "repl" ~doc) Term.(const run $ db $ scale $ seed $ work_mem)

let session_cmd =
  let no_cache =
    Arg.(
      value & flag
      & info [ "no-cache" ]
          ~doc:"Disable the plan cache (optimize every statement).")
  in
  let recost_ratio =
    Arg.(
      value
      & opt float Service.default_config.Service.recost_ratio
      & info [ "recost-ratio" ] ~docv:"R"
          ~doc:
            "Serve a re-bound cached plan only while its re-costed estimate \
             stays within $(docv) times the cost it was cached at.")
  in
  let file =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:"Query file ($(b,;;)-terminated statements); omit for stdin.")
  in
  let workers =
    Arg.(
      value
      & opt int 1
      & info [ "w"; "workers" ] ~docv:"N"
          ~doc:
            "Execute statements on $(docv) concurrent worker domains sharing \
             one plan cache (1 = serial in-process replay).")
  in
  let timeout_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout-ms" ] ~docv:"MS"
          ~doc:
            "Per-statement deadline in milliseconds; a statement exceeding it \
             fails with a typed timeout error while the batch continues.")
  in
  let spill_quota =
    Arg.(
      value
      & opt (some int) None
      & info [ "spill-quota" ] ~docv:"PAGES"
          ~doc:
            "Cumulative temp-page budget per statement; exceeding it fails \
             the statement with a typed resource error.")
  in
  let fault_plan =
    Arg.(
      value
      & opt (some string) None
      & info [ "fault-plan" ] ~docv:"SPEC"
          ~doc:
            "Install a deterministic storage fault plan, e.g. \
             $(b,seed=7;retries=6;read:p=0.01).  Matching page operations \
             fail with typed IO errors (retried within the plan's budget); \
             checksum verification is turned on.")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Write the session's metrics registry to $(docv) at the end of \
             the replay — JSON, or Prometheus text if $(docv) ends in \
             $(b,.prom).")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Emit one span tree per statement (parse, canonicalize, plan, \
             execute, per-operator spans) as JSONL to $(docv).")
  in
  let slow_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "slow-ms" ] ~docv:"MS"
          ~doc:
            "Slow-query log: statements taking at least $(docv) milliseconds \
             are reported to stderr with their trace id.")
  in
  let run algo db scale seed work_mem no_cache recost_ratio workers
      timeout_ms spill_quota fault_plan metrics_out trace_out slow_ms file =
    if recost_ratio < 1.0 then begin
      Format.eprintf "avq session: --recost-ratio must be >= 1.0@.";
      exit 1
    end;
    if workers < 1 then begin
      Format.eprintf "avq session: --workers must be >= 1@.";
      exit 1
    end;
    (* Ctrl-C / SIGTERM mid-replay: abort in-flight statements at their next
       batch boundary, then fall through the normal epilogue so traces and
       metrics still flush and temps are verifiably gone. *)
    Lifecycle.install Lifecycle.Abort_on_signal;
    (match timeout_ms with
     | Some ms when ms <= 0. ->
       Format.eprintf "avq session: --timeout-ms must be > 0@.";
       exit 1
     | _ -> ());
    (match spill_quota with
     | Some q when q < 0 ->
       Format.eprintf "avq session: --spill-quota must be >= 0@.";
       exit 1
     | _ -> ());
    let cat = load_db db scale seed in
    let faults =
      match fault_plan with
      | None -> None
      | Some spec -> (
        match Fault.parse spec with
        | Ok plan -> Some plan
        | Error msg ->
          Format.eprintf "avq session: bad --fault-plan: %s@." msg;
          exit 1)
    in
    Option.iter (Storage.Faults.install (Catalog.storage cat)) faults;
    let config =
      {
        Service.default_config with
        Service.algorithm = algo;
        work_mem;
        cache_enabled = not no_cache;
        recost_ratio;
        statement_timeout_ms = timeout_ms;
        spill_quota_pages = spill_quota;
      }
    in
    let svc = Service.create ~config cat in
    (* A --slow-ms threshold without --trace-out still wants the tracer (for
       the stderr slow log); spans just go nowhere. *)
    let tracer =
      match trace_out, slow_ms with
      | None, None -> None
      | Some path, _ -> Some (Trace.create_file ?slow_ms path)
      | None, Some _ -> Some (Trace.create ?slow_ms ())
    in
    Service.set_tracer svc tracer;
    let text =
      match file with
      | Some path -> In_channel.with_open_text path In_channel.input_all
      | None -> In_channel.input_all In_channel.stdin
    in
    (* The flush work is registered as lifecycle hooks (LIFO, run once) so an
       interrupted replay and a completed one leave through the same door. *)
    Option.iter
      (fun path ->
        Lifecycle.at_shutdown (fun () ->
            let m = Service.metrics svc in
            let body =
              if Filename.check_suffix path ".prom" then Metrics.to_prometheus m
              else Metrics.to_json m
            in
            Out_channel.with_open_text path (fun oc ->
                Out_channel.output_string oc body);
            Format.printf "metrics -> %s@." path))
      metrics_out;
    Option.iter
      (fun tr ->
        Lifecycle.at_shutdown (fun () ->
            Trace.close tr;
            Format.printf "trace: %d spans emitted, %d slow statements%s@."
              (Trace.spans_emitted tr) (Trace.slow_statements tr)
              (match trace_out with Some p -> " -> " ^ p | None -> "")))
      tracer;
    Fun.protect ~finally:Lifecycle.run_hooks (fun () ->
        let lines =
          if workers = 1 then Replay.replay svc text
          else
            Service.Pool.with_pool ~workers svc (fun pool ->
                Replay.replay_pool pool text)
        in
        Replay.report Format.std_formatter svc lines);
    if faults <> None then begin
      let st = Catalog.storage cat in
      let fs = Storage.Faults.stats st in
      Format.printf
        "faults: %d injected, %d retries, %d recovered, %d exhausted; live \
         temps: %d@."
        fs.Buffer_pool.injected fs.Buffer_pool.retried fs.Buffer_pool.recovered
        fs.Buffer_pool.exhausted (Storage.live_temps st)
    end;
    if Lifecycle.exit_code () <> 0 then begin
      Format.printf "interrupted: replay stopped cleanly (live temps: %d)@."
        (Storage.live_temps (Catalog.storage cat));
      exit (Lifecycle.exit_code ())
    end
  in
  let doc =
    "Replay a query file through one long-lived session (optionally over a \
     pool of worker domains), reusing cached plans across statements, and \
     print the cache report.  Statement failures (timeouts, injected faults, \
     quota, bad SQL) are reported per line; the batch always continues."
  in
  Cmd.v (Cmd.info "session" ~doc)
    Term.(
      const run $ algo $ db $ scale $ seed $ work_mem $ no_cache
      $ recost_ratio $ workers $ timeout_ms $ spill_quota $ fault_plan
      $ metrics_out $ trace_out $ slow_ms $ file)

(* ---- network front end ---- *)

let host =
  Arg.(
    value
    & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"ADDR" ~doc:"Address to listen on / connect to.")

let port ~default =
  Arg.(
    value
    & opt int default
    & info [ "p"; "port" ] ~docv:"PORT" ~doc:"TCP port.")

let serve_cmd =
  let workers =
    Arg.(
      value
      & opt int 4
      & info [ "w"; "workers" ] ~docv:"N"
          ~doc:"Executor worker domains behind the statement queue.")
  in
  let max_connections =
    Arg.(
      value
      & opt int Server.default_config.Server.max_connections
      & info [ "max-connections" ] ~docv:"N"
          ~doc:"Concurrent client sessions; further connects are refused.")
  in
  let max_queue =
    Arg.(
      value
      & opt int Server.default_config.Server.max_queue
      & info [ "max-queue" ] ~docv:"N"
          ~doc:
            "Admission control: statements admitted (queued + executing) at \
             once across all sessions; arrivals beyond $(docv) are rejected \
             with a typed resource error instead of buffered.")
  in
  let drain_grace_ms =
    Arg.(
      value
      & opt float Server.default_config.Server.drain_grace_ms
      & info [ "drain-grace-ms" ] ~docv:"MS"
          ~doc:
            "On shutdown, wait up to $(docv) for in-flight statements before \
             aborting them.")
  in
  let timeout_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout-ms" ] ~docv:"MS"
          ~doc:"Default per-statement deadline (sessions may SET their own).")
  in
  let spill_quota =
    Arg.(
      value
      & opt (some int) None
      & info [ "spill-quota" ] ~docv:"PAGES"
          ~doc:"Default per-statement temp-page budget.")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Write the server's metrics registry to $(docv) on shutdown — \
             JSON, or Prometheus text if $(docv) ends in $(b,.prom).")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:"Emit one span tree per statement as JSONL to $(docv).")
  in
  let slow_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "slow-ms" ] ~docv:"MS"
          ~doc:"Report statements taking at least $(docv) ms to stderr.")
  in
  let data_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "data-dir" ] ~docv:"DIR"
          ~doc:
            "Durability: keep a write-ahead log and checkpoints under \
             $(docv).  On startup the directory is recovered (last \
             checkpoint + committed WAL tail); on SIGTERM the drained state \
             is checkpointed before exit.  The directory is pinned to its \
             first $(b,--db)/$(b,--scale)/$(b,--seed) identity.")
  in
  let wal_fsync =
    Arg.(
      value
      & opt (enum [ ("always", `Always); ("group", `Group); ("never", `Never) ])
          `Always
      & info [ "wal-fsync" ] ~docv:"MODE"
          ~doc:
            "WAL durability mode: $(b,always) fsyncs every commit, \
             $(b,group) fsyncs at most once per $(b,--wal-group-ms) window, \
             $(b,never) leaves flushing to the OS (crash may lose recent \
             commits, never consistency).")
  in
  let wal_group_ms =
    Arg.(
      value
      & opt float 5.
      & info [ "wal-group-ms" ] ~docv:"MS"
          ~doc:"Group-commit window for $(b,--wal-fsync group).")
  in
  let checkpoint_bytes =
    Arg.(
      value
      & opt int (4 * 1024 * 1024)
      & info [ "checkpoint-bytes" ] ~docv:"BYTES"
          ~doc:
            "Checkpoint and truncate the WAL once it reaches $(docv) bytes \
             (0 disables size-triggered checkpoints).")
  in
  let http_port =
    Arg.(
      value
      & opt (some int) None
      & info [ "http" ] ~docv:"PORT"
          ~doc:
            "Serve observability over HTTP on $(docv) (0 picks an ephemeral \
             port): $(b,GET /metrics) (Prometheus text), $(b,GET /healthz) \
             (ready/draining/recovering), $(b,GET /statements?n=K) (top-K \
             statement statistics as JSON).")
  in
  let stats_reset =
    Arg.(
      value
      & flag
      & info [ "stats-reset" ]
          ~doc:
            "Reset the cumulative statement-statistics store \
             ($(b,avq_stat_statements)) after startup, so the first scrape \
             of a recovered server starts from zero.")
  in
  (* Kept so existing launch scripts that pass [--dop 1] still start. *)
  let dop =
    Arg.(
      value
      & opt (some int) None
      & info [ "dop" ] ~docv:"N"
          ~doc:
            "Accepted only as 1: statements always run serially.  Any other \
             value is rejected.")
  in
  let run algo db scale seed work_mem dop host port workers max_connections
      max_queue drain_grace_ms timeout_ms spill_quota metrics_out trace_out
      slow_ms data_dir wal_fsync wal_group_ms checkpoint_bytes http_port
      stats_reset =
    if workers < 1 then begin
      Format.eprintf "avq serve: --workers must be >= 1@.";
      exit 1
    end;
    if max_queue < 1 || max_connections < 1 then begin
      Format.eprintf "avq serve: --max-queue and --max-connections must be >= 1@.";
      exit 1
    end;
    if wal_group_ms <= 0. then begin
      Format.eprintf "avq serve: --wal-group-ms must be > 0@.";
      exit 1
    end;
    if checkpoint_bytes < 0 then begin
      Format.eprintf "avq serve: --checkpoint-bytes must be >= 0@.";
      exit 1
    end;
    (match dop with
     | Some d when d <> 1 ->
       Format.eprintf
         "avq serve: --dop %d: intra-query parallelism was removed; only \
          --dop 1 is accepted@." d;
       exit 1
     | _ -> ());
    let tracer =
      match (trace_out, slow_ms) with
      | None, None -> None
      | Some path, _ -> Some (Trace.create_file ?slow_ms path)
      | None, Some _ -> Some (Trace.create ?slow_ms ())
    in
    (* One server per data directory: the lock covers recovery too (it
       reads and truncates the WAL), so take it before anything touches
       the dir.  The kernel releases it if we die. *)
    let dir_lock =
      match data_dir with
      | None -> None
      | Some dir -> (
        match Dir_lock.acquire dir with
        | lock -> Some lock
        | exception Avq_error.Error e ->
          Format.eprintf "avq serve: %s@." (Avq_error.to_string e);
          exit 1)
    in
    (* The HTTP endpoint comes up before recovery so /healthz can answer
       "recovering" while the WAL replays; /metrics and /statements stay
       503 until the service exists and the front end listens. *)
    let svc_ref = ref None in
    let http =
      Option.map
        (fun hport ->
          match
            Http.start ~host ~port:hport
              ~metrics:(fun () ->
                match !svc_ref with
                | Some svc -> Metrics.to_prometheus (Service.metrics svc)
                | None -> "")
              ~statements:(fun ~n ->
                match !svc_ref with
                | Some svc -> Stmt_stats.to_json_top ~n (Service.stats_store svc)
                | None -> "{}")
              ()
          with
          | http -> http
          | exception Unix.Unix_error (err, _, _) ->
            Format.eprintf "avq serve: cannot bind --http %d: %s@." hport
              (Unix.error_message err);
            exit 1)
        http_port
    in
    (* With a data dir, the catalog + matview registry come from recovery
       (checkpoint + committed WAL tail) rather than a fresh load; without
       one the server is in-memory-only, exactly as before. *)
    let recovered =
      match data_dir with
      | None -> None
      | Some dir ->
        let fsync_mode =
          match wal_fsync with
          | `Always -> Wal.Fsync_always
          | `Group -> Wal.Fsync_group wal_group_ms
          | `Never -> Wal.Fsync_never
        in
        let meta =
          Printf.sprintf "db=%s;scale=%d;seed=%d" (db_name db) scale seed
        in
        let span =
          Option.map
            (fun tr -> Trace.start tr ~trace_id:(Trace.new_trace tr) "recovery")
            tracer
        in
        let result =
          match
            Recovery.recover ~data_dir:dir ~fsync_mode ~meta
              ~seed:(fun () -> load_db db scale seed)
              ()
          with
          | r -> r
          | exception Recovery.Error msg ->
            Format.eprintf "avq serve: %s@." msg;
            exit 1
          | exception Checkpoint.Corrupt msg ->
            Format.eprintf "avq serve: corrupt checkpoint in %s: %s@." dir msg;
            exit 1
        in
        let _, _, _, r = result in
        Option.iter
          (fun sp ->
            Trace.set_attr sp "checkpoint_loaded"
              (Trace.B r.Recovery.checkpoint_loaded);
            Trace.set_attr sp "tables_restored" (Trace.I r.Recovery.tables_restored);
            Trace.set_attr sp "matviews_restored"
              (Trace.I r.Recovery.matviews_restored);
            Trace.set_attr sp "replayed" (Trace.I r.Recovery.replayed);
            Trace.set_attr sp "skipped" (Trace.I r.Recovery.skipped);
            Trace.set_attr sp "torn_tail" (Trace.B r.Recovery.torn);
            ignore (Trace.finish sp))
          span;
        Format.printf
          "avq serve: recovered %s — %s, %d tables, %d matviews, %d WAL \
           records replayed (%d skipped%s) in %.1f ms@."
          dir
          (if r.Recovery.checkpoint_loaded then "checkpoint loaded"
           else "no checkpoint (seeded)")
          r.Recovery.tables_restored r.Recovery.matviews_restored
          r.Recovery.replayed r.Recovery.skipped
          (if r.Recovery.torn then ", torn tail cut" else "")
          r.Recovery.duration_ms;
        Some (dir, result)
    in
    let cat, mviews =
      match recovered with
      | Some (_, (cat, mviews, _, _)) -> (cat, Some mviews)
      | None -> (load_db db scale seed, None)
    in
    let config =
      {
        Service.default_config with
        Service.algorithm = algo;
        work_mem;
        statement_timeout_ms = timeout_ms;
        spill_quota_pages = spill_quota;
      }
    in
    let svc = Service.create ~config ?mviews cat in
    Option.iter
      (fun (dir, (_, _, writer, rstats)) ->
        Service.attach_wal svc ~data_dir:dir
          ?checkpoint_bytes:
            (if checkpoint_bytes = 0 then None else Some checkpoint_bytes)
          ~recovery:rstats writer)
      recovered;
    Service.set_tracer svc tracer;
    if stats_reset then Stmt_stats.reset (Service.stats_store svc);
    svc_ref := Some svc;
    (* first SIGTERM/SIGINT drains (finish in-flight, stop admitting), a
       second one aborts in-flight statements too *)
    Lifecycle.install Lifecycle.Drain_then_abort;
    Option.iter
      (fun path ->
        Lifecycle.at_shutdown (fun () ->
            let m = Service.metrics svc in
            let body =
              if Filename.check_suffix path ".prom" then Metrics.to_prometheus m
              else Metrics.to_json m
            in
            Out_channel.with_open_text path (fun oc ->
                Out_channel.output_string oc body);
            Format.printf "metrics -> %s@." path))
      metrics_out;
    Option.iter
      (fun tr -> Lifecycle.at_shutdown (fun () -> Trace.close tr))
      tracer;
    (* Hooks run LIFO: the drain checkpoint fires first, so the flushed
       metrics above still count it. *)
    if recovered <> None then
      Lifecycle.at_shutdown (fun () ->
          match Service.checkpoint svc with
          | tag -> Format.printf "avq serve: shutdown %s@." tag
          | exception e ->
            Format.eprintf "avq serve: shutdown checkpoint failed: %s@."
              (Printexc.to_string e));
    let server_config =
      { Server.host; port; max_connections; max_queue; drain_grace_ms }
    in
    let finally () =
      Lifecycle.run_hooks ();
      Option.iter Http.stop http;
      Option.iter Dir_lock.release dir_lock
    in
    Fun.protect ~finally (fun () ->
        Service.Pool.with_pool ~workers svc (fun pool ->
            let server = Server.start ~config:server_config pool in
            Format.printf
              "avq serve: listening on %s:%d (%d workers, %d max \
               connections, %d statement queue)@."
              host (Server.port server) workers max_connections max_queue;
            Option.iter
              (fun h ->
                Http.set_ready h;
                Format.printf
                  "avq serve: observability on http://%s:%d (/metrics \
                   /healthz /statements)@."
                  host (Http.port h))
              http;
            Format.printf "avq serve: SIGTERM drains, SIGTERM twice aborts@?";
            Format.printf "@.";
            Server.run server;
            Format.printf
              "avq serve: drained — %d admitted, %d rejected, live temps: %d@."
              (Server.admitted server) (Server.rejected server)
              (Storage.live_temps (Catalog.storage cat))))
    (* a drain-triggered exit is the server working as designed: exit 0 *)
  in
  let doc =
    "Serve queries over TCP: many client sessions multiplexed onto a worker \
     pool sharing one plan cache, with bounded statement admission and \
     graceful drain on SIGTERM."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ algo $ db $ scale $ seed $ work_mem $ dop $ host
      $ port ~default:5499 $ workers $ max_connections $ max_queue
      $ drain_grace_ms $ timeout_ms $ spill_quota $ metrics_out $ trace_out
      $ slow_ms $ data_dir $ wal_fsync $ wal_group_ms $ checkpoint_bytes
      $ http_port $ stats_reset)

let query_cmd =
  let sql =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SQL"
          ~doc:
            "One session statement: SELECT, INSERT, matview DDL, \
             $(b,\\\\metrics), $(b,\\\\dm), $(b,\\\\checkpoint).")
  in
  let run host port sql =
    match Client.connect ~host ~port () with
    | exception Wire.Protocol_error msg ->
      Format.eprintf "avq query: server refused: %s@." msg;
      exit 1
    | exception Unix.Unix_error (e, _, _) ->
      Format.eprintf "avq query: cannot connect to %s:%d: %s@." host port
        (Unix.error_message e);
      exit 1
    | c -> (
      match Client.query c sql with
      | Protocol.Result { body; _ } ->
        print_string body;
        if body <> "" && body.[String.length body - 1] <> '\n' then
          print_newline ();
        Client.close c
      | Protocol.Err { kind; detail } ->
        Format.eprintf "avq query: [%s] %s@." kind detail;
        Client.close c;
        exit 1
      | Protocol.Hello _ ->
        Format.eprintf "avq query: protocol error: unexpected Hello reply@.";
        Client.close c;
        exit 1)
  in
  let doc =
    "Send one statement to a running $(b,avq serve) and print the reply \
     body (exit 1 on a typed error)."
  in
  Cmd.v (Cmd.info "query" ~doc)
    Term.(const run $ host $ port ~default:5499 $ sql)

let loadgen_cmd =
  let connections =
    Arg.(
      value
      & opt int 8
      & info [ "c"; "connections" ] ~docv:"N" ~doc:"Concurrent client connections.")
  in
  let statements =
    Arg.(
      value
      & opt int 32
      & info [ "n"; "statements" ] ~docv:"N" ~doc:"Statements per connection.")
  in
  let rate =
    Arg.(
      value
      & opt (some float) None
      & info [ "rate" ] ~docv:"STMTS/S"
          ~doc:
            "Open-loop mode: offer $(docv) statements per second across all \
             connections regardless of reply latency.  Default: closed loop \
             (next statement when the reply lands).")
  in
  let file =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:
            "Workload file ($(b,;;)-terminated statements, sent round-robin); \
             omit for a built-in emp/dept aggregate mix.")
  in
  let run host port connections statements rate file =
    if connections < 1 || statements < 1 then begin
      Format.eprintf "avq loadgen: --connections and --statements must be >= 1@.";
      exit 1
    end;
    let sqls =
      match file with
      | None -> Loadgen.default_config.Loadgen.sqls
      | Some path ->
        let text = In_channel.with_open_text path In_channel.input_all in
        let stmts = Replay.split_statements text in
        if stmts = [] then begin
          Format.eprintf "avq loadgen: %s contains no statements@." path;
          exit 1
        end;
        stmts
    in
    let mode =
      match rate with
      | None -> Loadgen.Closed
      | Some r when r > 0. -> Loadgen.Open_rate r
      | Some _ ->
        Format.eprintf "avq loadgen: --rate must be > 0@.";
        exit 1
    in
    let stats =
      Loadgen.run { Loadgen.host; port; connections; statements; mode; sqls }
    in
    Format.printf "%a@." Loadgen.pp stats;
    if stats.Loadgen.ok = 0 then exit 1
  in
  let doc =
    "Drive a running $(b,avq serve) with concurrent connections and report \
     throughput and latency percentiles."
  in
  Cmd.v (Cmd.info "loadgen" ~doc)
    Term.(
      const run $ host $ port ~default:5499 $ connections $ statements $ rate
      $ file)

let main =
  let doc = "cost-based optimization of queries with aggregate views (EDBT'96)" in
  Cmd.group (Cmd.info "avq" ~version:"1.0.0" ~doc)
    [
      explain_cmd;
      run_cmd;
      compare_cmd;
      tables_cmd;
      repl_cmd;
      session_cmd;
      serve_cmd;
      query_cmd;
      loadgen_cmd;
    ]

let () = exit (Cmd.eval main)
