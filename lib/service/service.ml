type config = {
  algorithm : Optimizer.algorithm;
  work_mem : int;
  paper : Paper_opt.options;
  max_entries : int;
  max_bytes : int;
  recost_ratio : float;
  cache_enabled : bool;
  statement_timeout_ms : float option;
  spill_quota_pages : int option;
}

let default_config =
  {
    algorithm = Optimizer.Paper;
    work_mem = 32;
    paper = Paper_opt.default_options;
    max_entries = 128;
    max_bytes = 4 * 1024 * 1024;
    recost_ratio = 10.0;
    cache_enabled = true;
    statement_timeout_ms = None;
    spill_quota_pages = None;
  }

(* Atomic float accumulator for the wall-time totals: a CAS loop, since
   [Atomic] has no float add. *)
let fsum_add a x =
  let rec go () =
    let v = Atomic.get a in
    if not (Atomic.compare_and_set a v (v +. x)) then go ()
  in
  go ()

(* Shared across every session and worker of one service: the cache sits
   behind [lock] (find→optimize→add is atomic, so a template is optimized
   once per (fingerprint, algo, work_mem) no matter how many workers race
   on it); the counters are atomics, readable without the lock. *)
type t = {
  cat : Catalog.t;
  cfg : config;
  cache : Plan_cache.t;
  mviews : Matview.t;
  lock : Mutex.t;
  calls : int Atomic.t;
  hits : int Atomic.t;
  rebinds : int Atomic.t;
  misses : int Atomic.t;
  recost_fallbacks : int Atomic.t;
  rebind_conflicts : int Atomic.t;
  stale_hits : int Atomic.t;
  opt_ms_total : float Atomic.t;
  opt_ms_saved : float Atomic.t;
  (* Typed-error tally, one counter per {!Avq_error} kind (see [err_slot]).
     Bumped by [finish] when a statement fails with a typed error (and by
     the network front end for admission rejections).  Planning counts one
     [calls] whether or not execution later fails, so
     hits + rebinds + misses + recost_fallbacks + rebind_conflicts +
     uncached = calls holds with or without failures. *)
  errs : int Atomic.t array;
  (* Observability: the registry aggregates every counter family this
     service touches (buffer pool, plan cache, errors, statements, pool);
     the tracer, when set, receives one span tree per executed statement. *)
  metrics : Metrics.t;
  (* Per-fingerprint cumulative statement statistics (always on): [finish]
     records exactly one observation per [statements] increment, so the sum
     of [Stats] calls tracks [avq_statements_total] while nothing is
     evicted. *)
  stats : Stmt_stats.t;
  mutable tracer : Trace.tracer option;
  statements : Metrics.Counter.t;
  stmt_ms : Metrics.Histogram.t;
  stmt_io : Metrics.Histogram.t;
  (* Durability: when a WAL is attached every mutating statement appends its
     record (and fsyncs per the writer's mode) BEFORE touching the catalog,
     and seals it with a commit record after — so recovery replays exactly
     the acknowledged statements.  All WAL state is guarded by [lock], like
     the catalog it journals. *)
  mutable wal : Wal.writer option;
  mutable wal_dir : string option;
  mutable wal_checkpoint_bytes : int option;
  mutable checkpoints_done : int;
}

(* [avq_errors_total] kind labels, indexed by [err_slot]. *)
let err_kinds =
  [| "io_fault"; "corruption"; "resource_exceeded"; "timeout"; "cancelled";
     "bad_statement"; "unavailable" |]

let err_slot : Avq_error.t -> int = function
  | Avq_error.Io_fault _ -> 0
  | Avq_error.Corruption _ -> 1
  | Avq_error.Resource_exceeded _ -> 2
  | Avq_error.Timeout _ -> 3
  | Avq_error.Cancelled -> 4
  | Avq_error.Bad_statement _ -> 5
  | Avq_error.Unavailable _ -> 6

let record_error t e = Atomic.incr t.errs.(err_slot e)

(* Expose every pre-existing counter family through the registry as
   sampled-at-export instruments, so the exports unify state that keeps
   living where it is cheap to update (storage atomics, cache counters
   behind the service lock). *)
let register_metrics t =
  let m = t.metrics in
  let st = Catalog.storage t.cat in
  let fi f = fun () -> float_of_int (f ()) in
  Metrics.fn_counter m "avq_bufferpool_reads_total"
    ~help:"Physical page reads (buffer-pool misses)"
    (fi (fun () -> (Storage.io_stats st).Buffer_pool.reads));
  Metrics.fn_counter m "avq_bufferpool_writes_total"
    ~help:"Physical page writes (dirty evictions + flushes)"
    (fi (fun () -> (Storage.io_stats st).Buffer_pool.writes));
  Metrics.fn_counter m "avq_bufferpool_hits_total"
    ~help:"Page accesses served from the pool"
    (fi (fun () -> (Storage.io_stats st).Buffer_pool.hits));
  Metrics.gauge m "avq_storage_temps_live"
    ~help:"Temp heap files currently allocated"
    (fi (fun () -> Storage.live_temps st));
  Metrics.fn_counter m "avq_faults_injected_total"
    ~help:"Typed faults raised by the installed fault plan"
    (fi (fun () -> (Storage.Faults.stats st).Buffer_pool.injected));
  Metrics.fn_counter m "avq_faults_retried_total"
    ~help:"Retry attempts spent on faulted reads"
    (fi (fun () -> (Storage.Faults.stats st).Buffer_pool.retried));
  Metrics.fn_counter m "avq_faults_recovered_total"
    ~help:"Reads that succeeded after at least one retry"
    (fi (fun () -> (Storage.Faults.stats st).Buffer_pool.recovered));
  Metrics.fn_counter m "avq_faults_exhausted_total"
    ~help:"Reads that failed after the whole retry budget"
    (fi (fun () -> (Storage.Faults.stats st).Buffer_pool.exhausted));
  let c name help ctr =
    Metrics.fn_counter m name ~help (fi (fun () -> Atomic.get ctr))
  in
  c "avq_plancache_calls_total" "Plan/execute requests" t.calls;
  c "avq_plancache_hits_total" "Cached plans served as-is" t.hits;
  c "avq_plancache_rebinds_total" "Cached templates re-bound and served"
    t.rebinds;
  c "avq_plancache_misses_total" "Optimizations with no usable entry" t.misses;
  c "avq_plancache_recost_fallbacks_total"
    "Re-bound plans rejected by the recost guard" t.recost_fallbacks;
  c "avq_plancache_rebind_conflicts_total" "Ambiguous re-bindings"
    t.rebind_conflicts;
  c "avq_plancache_stale_hits_total" "Plans served under a wrong epoch (must stay 0)"
    t.stale_hits;
  let cache_counters () = Mutex.protect t.lock (fun () -> Plan_cache.counters t.cache) in
  Metrics.fn_counter m "avq_plancache_evictions_total"
    ~help:"Entries dropped to stay within capacity"
    (fi (fun () -> (cache_counters ()).Plan_cache.evictions));
  Metrics.fn_counter m "avq_plancache_invalidations_total"
    ~help:"Entries dropped for a stale epoch or by invalidate_all"
    (fi (fun () -> (cache_counters ()).Plan_cache.invalidations));
  Metrics.gauge m "avq_plancache_entries"
    ~help:"Current plan-cache population"
    (fi (fun () -> (cache_counters ()).Plan_cache.entries));
  Metrics.gauge m "avq_plancache_bytes"
    ~help:"Current plan-cache size (bytes-ish)"
    (fi (fun () -> (cache_counters ()).Plan_cache.bytes));
  let mc name help f =
    Metrics.fn_counter m name ~help
      (fi (fun () -> f (Matview.stats t.mviews)))
  in
  mc "avq_matview_rewrite_attempts_total"
    "Optimizations that considered at least one materialized view"
    (fun s -> s.Matview.attempts);
  mc "avq_matview_rewrite_hits_total"
    "Plans answered from a materialized view (cost-chosen)"
    (fun s -> s.Matview.hits);
  mc "avq_matview_rewrite_cost_rejections_total"
    "View rewrites discarded because the base plan was cheaper"
    (fun s -> s.Matview.cost_rejections);
  mc "avq_matview_rewrite_stale_skips_total"
    "Optimizations whose only matching views were stale"
    (fun s -> s.Matview.stale_skips);
  mc "avq_matview_maintenance_deltas_total"
    "Incremental maintenance batches folded into extents"
    (fun s -> s.Matview.deltas);
  mc "avq_matview_maintenance_rows_total"
    "Base rows absorbed by incremental maintenance"
    (fun s -> s.Matview.delta_rows);
  mc "avq_matview_refreshes_total" "Full REFRESH recomputations"
    (fun s -> s.Matview.refreshes);
  Metrics.gauge m "avq_matviews" ~help:"Live materialized views"
    (fi (fun () -> List.length (Matview.views t.mviews)));
  for i = 0 to Array.length t.errs - 1 do
    Metrics.fn_counter m "avq_errors_total"
      ~help:"Failed statements by typed-error kind"
      ~labels:[ ("kind", err_kinds.(i)) ]
      (fi (fun () -> Atomic.get t.errs.(i)))
  done;
  Metrics.fn_counter m "avq_slow_statements_total"
    ~help:"Statements at or above the tracer's slow-ms threshold" (fun () ->
      match t.tracer with
      | Some tr -> float_of_int (Trace.slow_statements tr)
      | None -> 0.);
  Metrics.fn_counter m "avq_trace_spans_total"
    ~help:"Spans emitted by the statement tracer" (fun () ->
      match t.tracer with
      | Some tr -> float_of_int (Trace.spans_emitted tr)
      | None -> 0.);
  Stmt_stats.register_metrics t.stats m

let create ?(config = default_config) ?mviews cat =
  if config.recost_ratio < 1.0 then
    invalid_arg "Service.create: recost_ratio < 1.0";
  let metrics = Metrics.create () in
  let t =
    {
      cat;
      cfg = config;
      cache =
        Plan_cache.create ~max_entries:config.max_entries
          ~max_bytes:config.max_bytes ();
      mviews = (match mviews with Some m -> m | None -> Matview.create ());
      lock = Mutex.create ();
      calls = Atomic.make 0;
      hits = Atomic.make 0;
      rebinds = Atomic.make 0;
      misses = Atomic.make 0;
      recost_fallbacks = Atomic.make 0;
      rebind_conflicts = Atomic.make 0;
      stale_hits = Atomic.make 0;
      opt_ms_total = Atomic.make 0.;
      opt_ms_saved = Atomic.make 0.;
      errs = Array.map (fun _ -> Atomic.make 0) err_kinds;
      metrics;
      stats = Stmt_stats.create ();
      tracer = None;
      statements =
        Metrics.counter metrics "avq_statements_total"
          ~help:"Statements executed (successful or not)";
      stmt_ms =
        Metrics.histogram metrics "avq_statement_ms"
          ~help:"Successful statement latency after prepare: plan + \
                 execute for queries, apply for writes (ms)"
          ~buckets:Metrics.Histogram.latency_ms_buckets;
      stmt_io =
        Metrics.histogram metrics "avq_statement_io_pages"
          ~help:"Page IO (reads + writes) per successful statement"
          ~buckets:Metrics.Histogram.io_pages_buckets;
      wal = None;
      wal_dir = None;
      wal_checkpoint_bytes = None;
      checkpoints_done = 0;
    }
  in
  register_metrics t;
  t

(* ---- durability ---- *)

let register_wal_metrics t w recovery =
  let m = t.metrics in
  let ws f = fun () -> float_of_int (f (Wal.stats w)) in
  Metrics.fn_counter m "avq_wal_records_total"
    ~help:"WAL records appended since attach" (ws (fun s -> s.Wal.records));
  Metrics.fn_counter m "avq_wal_commits_total"
    ~help:"Commit records appended (statements acknowledged durable)"
    (ws (fun s -> s.Wal.commits));
  Metrics.fn_counter m "avq_wal_fsyncs_total"
    ~help:"fsync calls issued by the WAL writer" (ws (fun s -> s.Wal.fsyncs));
  Metrics.fn_counter m "avq_wal_group_deferred_total"
    ~help:"Commits whose fsync was deferred to a group window"
    (ws (fun s -> s.Wal.deferred));
  Metrics.fn_counter m "avq_wal_truncations_total"
    ~help:"Post-checkpoint WAL truncations" (ws (fun s -> s.Wal.truncations));
  Metrics.gauge m "avq_wal_bytes" ~help:"Current WAL size on disk"
    (ws (fun s -> s.Wal.bytes));
  Metrics.fn_counter m "avq_checkpoints_total"
    ~help:"Checkpoints written (size-triggered, \\checkpoint, or drain)"
    (fun () -> float_of_int t.checkpoints_done);
  match recovery with
  | None -> ()
  | Some (r : Recovery.stats) ->
    let g name help v = Metrics.gauge m name ~help (fun () -> v) in
    g "avq_recovery_replayed" "Committed WAL records replayed at startup"
      (float_of_int r.Recovery.replayed);
    g "avq_recovery_skipped"
      "WAL records skipped at startup (checkpointed or uncommitted)"
      (float_of_int r.Recovery.skipped);
    g "avq_recovery_torn_tail" "1 if the WAL ended in a torn record"
      (if r.Recovery.torn then 1. else 0.);
    g "avq_recovery_tables_restored" "Tables restored from the checkpoint"
      (float_of_int r.Recovery.tables_restored);
    g "avq_recovery_matviews_restored"
      "Materialized views restored from the checkpoint"
      (float_of_int r.Recovery.matviews_restored);
    g "avq_recovery_duration_ms" "Startup recovery wall time"
      r.Recovery.duration_ms

let attach_wal t ~data_dir ?checkpoint_bytes ?recovery writer =
  t.wal <- Some writer;
  t.wal_dir <- Some data_dir;
  t.wal_checkpoint_bytes <- checkpoint_bytes;
  register_wal_metrics t writer recovery

let wal t = t.wal

let checkpoint_locked t =
  match t.wal, t.wal_dir with
  | Some w, Some dir ->
    ignore (Wal.append w Wal.Checkpoint_begin);
    Wal.flush w;
    let last = Wal.last_lsn w in
    let bytes = Checkpoint.write ~dir ~last_lsn:last t.cat t.mviews in
    ignore (Wal.append w (Wal.Checkpoint_end { ckpt_lsn = last }));
    Wal.truncate w;
    t.checkpoints_done <- t.checkpoints_done + 1;
    Printf.sprintf "CHECKPOINT (%d bytes, through lsn %Ld)" bytes last
  | _ -> "CHECKPOINT skipped: no data directory attached"

let checkpoint t = Mutex.protect t.lock (fun () -> checkpoint_locked t)

(* Size-triggered checkpointing, checked after each committed mutation
   (lock already held). *)
let maybe_checkpoint_locked t =
  match t.wal, t.wal_checkpoint_bytes with
  | Some w, Some limit when Wal.size w >= limit ->
    ignore (checkpoint_locked t)
  | _ -> ()

let wal_append_locked t record =
  match t.wal with Some w -> Some (Wal.append w record) | None -> None

let wal_commit_locked t lsn_opt =
  match t.wal, lsn_opt with
  | Some w, Some lsn ->
    Wal.commit w lsn;
    maybe_checkpoint_locked t
  | _ -> ()

let catalog t = t.cat

(* Per-session overrides of the service-wide statement knobs ([None] =
   inherit the config).  Carried per call so one shared service (and one
   shared plan cache — work_mem is part of the cache key) can
   serve sessions with different SET values. *)
type session_limits = {
  sl_timeout_ms : float option;
  sl_spill_quota : int option;
  sl_work_mem : int option;
  sl_sid : int option;  (* server session id, for slow-log / stats joins *)
}

let no_limits =
  { sl_timeout_ms = None; sl_spill_quota = None; sl_work_mem = None;
    sl_sid = None }
let matviews t = t.mviews
let metrics t = t.metrics
let stats_store t = t.stats
let set_tracer t tr = t.tracer <- tr

type stmt = {
  squery : Block.query;
  template : string;
  fp : Fingerprint.t;
  base_params : Value.t list;
  parse_ms : float;  (* lex + parse + bind time (0 for prepare_query) *)
  canon_ms : float;  (* canonicalize + fingerprint time *)
}

let make_stmt ~parse_ms query =
  let t0 = Unix.gettimeofday () in
  let template = Canon.serialize query in
  let fp = Fingerprint.of_string template in
  {
    squery = query;
    template;
    fp;
    base_params = Canon.params query;
    parse_ms;
    canon_ms = (Unix.gettimeofday () -. t0) *. 1000.;
  }

let prepare_query _t query = make_stmt ~parse_ms:0. query

(* The one place a statement's failure becomes a typed error, wrapped
   around the prepare stage (and a write's apply stage): lex, parse and
   bind errors and rejected view definitions are the statement's fault.
   Later stages fail typed already (limits, storage faults); anything else
   is an engine bug and stays untyped. *)
let typed f =
  let bad m = Avq_error.error (Avq_error.Bad_statement m) in
  try f () with
  | Binder.Bind_error m -> bad ("bind: " ^ m)
  | Parser.Parse_error (m, off) -> bad (Printf.sprintf "parse at %d: %s" off m)
  | Lexer.Lex_error (m, off) -> bad (Printf.sprintf "lex at %d: %s" off m)
  | Matview.Error m | Invalid_argument m -> bad m

let prepare t sql =
  typed (fun () ->
      let t0 = Unix.gettimeofday () in
      (* Queries over the system views read a snapshot taken just before
         they are bound: re-materialize under the statement lock, then bind
         against the refreshed catalog.  The textual trigger
         over-approximates, which only costs an unneeded refresh. *)
      if Sysview.references_system_view sql then
        Mutex.protect t.lock (fun () ->
            Sysview.refresh t.cat ~stats:t.stats ~mviews:t.mviews);
      let query = Binder.bind_sql t.cat sql in
      make_stmt ~parse_ms:((Unix.gettimeofday () -. t0) *. 1000.) query)

let stmt_fingerprint s = Fingerprint.to_hex s.fp
let stmt_params s = s.base_params

type source =
  | Hit
  | Hit_rebound
  | Miss
  | Recost_fallback
  | Rebind_conflict
  | Uncached

let source_label = function
  | Hit -> "hit"
  | Hit_rebound -> "hit-rebound"
  | Miss -> "miss"
  | Recost_fallback -> "recost-fallback"
  | Rebind_conflict -> "rebind-conflict"
  | Uncached -> "uncached"

type planned = {
  plan : Physical.t;
  est : Cost_model.est;
  source : source;
  opt_ms : float;
  plan_ms : float;
  search : Search_stats.t;
  rewrite : Matview.decision;
}

let algo_tag = function
  | Optimizer.Traditional -> "trad"
  | Optimizer.Greedy_conservative -> "greedy"
  | Optimizer.Paper -> "paper"

let cache_key ~work_mem t stmt =
  Printf.sprintf "%s/%s/%d" (Fingerprint.to_hex stmt.fp)
    (algo_tag t.cfg.algorithm) work_mem

let options ?work_mem t =
  {
    Optimizer.default_options with
    algorithm = t.cfg.algorithm;
    work_mem = Option.value ~default:t.cfg.work_mem work_mem;
    paper = t.cfg.paper;
  }

let params_equal a b = List.for_all2 (fun x y -> Stdlib.compare x y = 0) a b

(* Bytes-ish footprint of a cache entry: dominated by the plan tree, which
   we approximate by its rendering, plus key, template and parameters. *)
let entry_bytes ~key ~template ~plan ~params =
  String.length (Physical.to_string plan)
  + String.length template + String.length key + (24 * List.length params) + 128

let optimize_and_cache ~work_mem t stmt ps query source =
  let r, decision =
    Matview.optimize ~options:(options ~work_mem t) t.cat t.mviews query
  in
  fsum_add t.opt_ms_total r.Optimizer.time_ms;
  let key = cache_key ~work_mem t stmt in
  if t.cfg.cache_enabled then
    Plan_cache.add t.cache
      {
        Plan_cache.key;
        template = stmt.template;
        params = ps;
        plan = r.Optimizer.plan;
        est = r.Optimizer.est;
        search = r.Optimizer.search;
        opt_ms = r.Optimizer.time_ms;
        epoch = Catalog.epoch t.cat;
        mv = Matview.rewritten_view decision;
        bytes =
          entry_bytes ~key ~template:stmt.template ~plan:r.Optimizer.plan
            ~params:ps;
      };
  { plan = r.Optimizer.plan; est = r.Optimizer.est; source;
    opt_ms = r.Optimizer.time_ms; plan_ms = 0.; search = r.Optimizer.search;
    rewrite = decision }

(* A plan served from the cache entry [e]. *)
let served t (e : Plan_cache.entry) ~plan ~est source rewrite =
  fsum_add t.opt_ms_saved e.Plan_cache.opt_ms;
  { plan; est; source; opt_ms = 0.; plan_ms = 0.; search = e.Plan_cache.search;
    rewrite }

let plan ?params ?(limits = no_limits) t stmt =
  let t0 = Unix.gettimeofday () in
  let work_mem = Option.value ~default:t.cfg.work_mem limits.sl_work_mem in
  let ps = Option.value ~default:stmt.base_params params in
  if List.length ps <> List.length stmt.base_params then
    invalid_arg "Service.plan: wrong number of parameters";
  let same_params = params_equal ps stmt.base_params in
  let query = if same_params then stmt.squery else Canon.substitute stmt.squery ps in
  let optimize counter source =
    Option.iter Atomic.incr counter;
    optimize_and_cache ~work_mem t stmt ps query source
  in
  let miss () = optimize (Some t.misses) Miss in
  Atomic.incr t.calls;
  (* One critical section per call.  Holding the lock across the optimizer
     run serializes misses, which is exactly the pay-once semantics we want:
     a second worker racing on the same key blocks, then finds the entry and
     hits.  Cache-hit sections are microseconds. *)
  let p =
    Mutex.protect t.lock (fun () ->
        let epoch = Catalog.epoch t.cat in
        if not t.cfg.cache_enabled then optimize None Uncached
        else
          match Plan_cache.find t.cache (cache_key ~work_mem t stmt) ~epoch with
          | None -> miss ()
          | Some entry
            when not (String.equal entry.Plan_cache.template stmt.template) ->
            (* 64-bit fingerprint collision: a different template landed on
               our key.  Treat as a miss (re-optimizing overwrites the
               entry); the colliding templates may thrash but can never
               serve each other's plans. *)
            miss ()
          | Some entry when entry.Plan_cache.epoch <> epoch ->
            (* unreachable: [find] filters stale epochs; belt and suspenders
               so a stale plan can never be served silently. *)
            Atomic.incr t.stale_hits;
            miss ()
          | Some entry when params_equal ps entry.Plan_cache.params ->
            Atomic.incr t.hits;
            served t entry ~plan:entry.Plan_cache.plan ~est:entry.Plan_cache.est
              Hit (Matview.From_cache entry.Plan_cache.mv)
          | Some entry when entry.Plan_cache.mv <> None ->
            (* A view-rewritten plan folded the view's covered predicates
               into the extent's contents; re-binding it to different
               parameters would silently answer the wrong query.  Always
               re-optimize for new parameters instead. *)
            miss ()
          | Some entry -> (
            match
              Plan_rebind.mapping ~old_params:entry.Plan_cache.params
                ~new_params:ps
            with
            | None -> optimize (Some t.rebind_conflicts) Rebind_conflict
            | Some pairs ->
              let plan = Plan_rebind.rebind pairs entry.Plan_cache.plan in
              let est = Cost_model.estimate t.cat ~work_mem plan in
              if
                est.Cost_model.cost
                <= (t.cfg.recost_ratio *. entry.Plan_cache.est.Cost_model.cost)
                   +. 1e-6
              then begin
                Atomic.incr t.rebinds;
                served t entry ~plan ~est Hit_rebound (Matview.From_cache None)
              end
              else optimize (Some t.recost_fallbacks) Recost_fallback))
  in
  { p with plan_ms = (Unix.gettimeofday () -. t0) *. 1000. }

(* Where did the group-by land relative to the joins?  The paper's central
   plan-shape decision, surfaced as a trace attr on every plan span. *)
let group_placement plan =
  let rec walk ~below_join acc p =
    let acc =
      match p with
      | Physical.Hash_group _ | Physical.Sort_group _ ->
        (if below_join then `Early else `Late) :: acc
      | _ -> acc
    in
    let below_join =
      below_join
      ||
      match p with
      | Physical.Block_nl_join _ | Physical.Index_nl_join _
      | Physical.Hash_join _ | Physical.Merge_join _ -> true
      | _ -> false
    in
    List.fold_left (walk ~below_join) acc (Physical.inputs p)
  in
  match walk ~below_join:false [] plan with
  | [] -> "none"
  | ps ->
    if List.mem `Early ps && List.mem `Late ps then "mixed"
    else if List.mem `Early ps then "early"
    else "late"

(* Rebuild per-operator spans from the profile tree.  [t0] is the execute
   span's start: operator timing is measured by the profiler, not the
   tracer, so these are synthetic spans anchored at the execute start. *)
let rec emit_op_spans tr ~trace_id ~parent ~t0 node =
  let sid =
    Trace.emit tr ~trace_id ~parent ~t0 ~dur_ms:(Profile.total_ms node)
      ("op:" ^ node.Profile.pname)
      [
        ("rows_out", Trace.I node.Profile.rows_out);
        ("batches", Trace.I node.Profile.batches);
        ("reads", Trace.I (Profile.total_reads node));
        ("writes", Trace.I (Profile.total_writes node));
        ("hits", Trace.I (Profile.total_hits node));
        ("open_ms", Trace.F node.Profile.open_ms);
      ]
  in
  List.iter (emit_op_spans tr ~trace_id ~parent:sid ~t0) (Profile.children node)

let plan_span_attrs t p =
  [
    ("source", Trace.S (source_label p.source));
    ("algorithm", Trace.S (algo_tag t.cfg.algorithm));
    ("opt_ms", Trace.F p.opt_ms);
    ("est_rows", Trace.F p.est.Cost_model.rows);
    ("est_io", Trace.F p.est.Cost_model.cost);
    ("join_plans", Trace.I p.search.Search_stats.join_plans);
    ("group_plans", Trace.I p.search.Search_stats.group_plans);
    ("dp_entries", Trace.I p.search.Search_stats.entries);
    ("pullups", Trace.I p.search.Search_stats.pullups);
    ("group_placement", Trace.S (group_placement p.plan));
  ]
  @ (match Matview.rewritten_view p.rewrite with
    | Some v -> [ ("matview", Trace.S v) ]
    | None -> [])

(* ==== the statement pipeline ====

   Every statement runs as stages filling one [record]: a query is
   prepare → plan → execute, a write is prepare → apply (under the service
   lock).  Stages only take timestamps and store what they produced;
   [finish] alone turns the record into the statement counter, the
   latency and IO histograms, the statement statistics, the typed-error
   tally and — when a tracer is set — the span tree and slow-log line. *)

type input = Sql of string | Prepared of stmt * Value.t list option

type record = {
  text : string;  (* trimmed statement text, until a template is known *)
  sid : int option;
  t0 : float;  (* prepare starts *)
  mutable stmt : stmt option;
  mutable started : float;  (* plan (query) or apply (write) starts; 0 = not reached *)
  mutable planned : planned option;
  mutable exec_t0 : float;  (* execute (query) or apply (write) starts *)
  mutable exec_ms : float;
  mutable ctx : Exec_ctx.t option;  (* armed with this statement's limits *)
  mutable rows : int;
  mutable io : Buffer_pool.stats;
  mutable wal_bytes : int;
  mutable profile : Profile.t option;
  mutable error : exn option;
  mutable t1 : float;  (* set by [finish] *)
}

let new_record ?(limits = no_limits) text =
  {
    text;
    sid = limits.sl_sid;
    t0 = Unix.gettimeofday ();
    stmt = None;
    started = 0.;
    planned = None;
    exec_t0 = 0.;
    exec_ms = 0.;
    ctx = None;
    rows = 0;
    io = { Buffer_pool.reads = 0; writes = 0; hits = 0 };
    wal_bytes = 0;
    profile = None;
    error = None;
    t1 = 0.;
  }

let ms_between a b = (b -. a) *. 1000.

(* The span tree, rebuilt from the record's stage boundaries: statement →
   parse / canonicalize / plan / view_rewrite / execute (apply, for a
   write) → op:*.  The root and the stage a failure struck in carry the
   error status. *)
let emit_trace t tr r ~fp ~query ~ms =
  let trace_id = Trace.new_trace tr in
  let status last = if last && r.error <> None then "error" else "ok" in
  let root =
    Trace.emit tr ~trace_id ~status:(status true) ~t0:r.t0
      ~dur_ms:(ms_between r.t0 r.t1) "statement"
      [ ("fingerprint", Trace.S fp) ]
  in
  let span ?(last = false) t0 dur_ms name attrs =
    Trace.emit tr ~trace_id ~parent:root ~status:(status last) ~t0 ~dur_ms name
      attrs
  in
  (* A prepared statement's parse/canonicalize times are re-emitted per
     execution, anchored at the statement start, so every trace is
     self-contained. *)
  (match r.stmt with
   | Some s ->
     ignore (span r.t0 s.parse_ms "parse" []);
     ignore (span (r.t0 +. (s.parse_ms /. 1000.)) s.canon_ms "canonicalize" [])
   | None ->
     let until = if r.started > 0. then r.started else r.t1 in
     ignore (span ~last:(r.started = 0.) r.t0 (ms_between r.t0 until) "parse" []));
  (match r.planned with
   | Some p -> (
     ignore (span r.started p.plan_ms "plan" (plan_span_attrs t p));
     match p.rewrite with
     | Matview.No_views -> ()
     | d ->
       ignore
         (span (r.started +. (p.plan_ms /. 1000.)) 0. "view_rewrite"
            (("decision", Trace.S (Matview.decision_to_string d))
            :: (match Matview.rewritten_view d with
               | Some v -> [ ("view", Trace.S v) ]
               | None -> []))))
   | None when r.started > 0. && r.exec_t0 = 0. ->
     ignore (span ~last:true r.started (ms_between r.started r.t1) "plan" [])
   | None -> ());
  if r.exec_t0 > 0. then begin
    let attrs =
      match r.error, r.planned with
      | Some _, _ -> [ ("partial", Trace.B true) ]
      | None, None -> [ ("wal_bytes", Trace.I r.wal_bytes) ]
      | None, Some _ ->
        [
          ("rows", Trace.I r.rows);
          ("reads", Trace.I r.io.Buffer_pool.reads);
          ("writes", Trace.I r.io.Buffer_pool.writes);
          ("hits", Trace.I r.io.Buffer_pool.hits);
        ]
    in
    let eid =
      span ~last:true r.exec_t0 r.exec_ms
        (if r.planned = None then "apply" else "execute")
        attrs
    in
    Option.iter
      (fun prof ->
        List.iter
          (emit_op_spans tr ~trace_id ~parent:eid ~t0:r.exec_t0)
          (Profile.roots prof))
      r.profile
  end;
  Trace.note_slow tr ~fingerprint:fp ?sid:r.sid ~sql:query ~dur_ms:ms ~trace_id
    ()

(* The only consumer of a finished record.  A statement's latency runs from
   the end of its prepare stage (a prepared statement skips that stage, so
   text and prepared executions of one template stay comparable; prepare
   time is in the trace); a statement that failed to prepare reports the
   prepare stage. *)
let finish t r =
  r.t1 <- Unix.gettimeofday ();
  if r.error <> None && r.exec_t0 > 0. then r.exec_ms <- ms_between r.exec_t0 r.t1;
  let ms = ms_between (if r.started > 0. then r.started else r.t0) r.t1 in
  let fp, query =
    match r.stmt with
    | Some s -> (Fingerprint.to_hex s.fp, s.template)
    | None -> (Fingerprint.to_hex (Fingerprint.of_string r.text), r.text)
  in
  let pages = r.io.Buffer_pool.reads + r.io.Buffer_pool.writes in
  Metrics.Counter.incr t.statements;
  let error =
    match r.error with
    | None ->
      Metrics.Histogram.observe t.stmt_ms ms;
      Metrics.Histogram.observe t.stmt_io (float_of_int pages);
      None
    | Some (Avq_error.Error e) ->
      record_error t e;
      Some err_kinds.(err_slot e)
    | Some _ -> Some "exception"
  in
  let source = Option.map (fun p -> p.source) r.planned in
  Stmt_stats.record t.stats ~fp ~query ?error ~rows:r.rows ~pages
    ~spill_bytes:
      (match r.ctx with Some c -> Exec_ctx.spill_pages c * Page.size | None -> 0)
    ~cache_hit:(source = Some Hit) ~rebind:(source = Some Hit_rebound)
    ~mv_hit:
      (match r.planned with
       | Some p -> Matview.rewritten_view p.rewrite <> None
       | None -> false)
    ~wal_bytes:r.wal_bytes ~ms ();
  Option.iter (fun tr -> emit_trace t tr r ~fp ~query ~ms) t.tracer

let run_stages t r stages =
  let outcome =
    match stages () with
    | v -> Ok v
    | exception e ->
      r.error <- Some e;
      Error e
  in
  finish t r;
  outcome

let get = function Ok v -> v | Error e -> raise e
let first o default = match o with Some _ -> o | None -> default

(* Queries: prepare → plan → execute, on the caller's context.  Session
   overrides take precedence over the service config; a work_mem override
   gets its own context (a context's budget is fixed at creation and shared
   with the cost model through the plan).  Limits are armed before
   planning, so the deadline covers planning + execution and a statement
   whose token was cancelled before it started never runs.  The profiler
   runs only when a tracer or EXPLAIN ANALYZE will read its tree. *)
let run_query ?cancel ?(profile = false) ?(limits = no_limits) ctx t input =
  let ctx =
    match limits.sl_work_mem with
    | Some wm when wm <> Exec_ctx.work_mem ctx ->
      Exec_ctx.create ~work_mem:wm t.cat
    | _ -> ctx
  in
  let r =
    new_record ~limits
      (match input with Sql sql -> String.trim sql | Prepared _ -> "")
  in
  let outcome =
    run_stages t r (fun () ->
        let stmt, params =
          match input with
          | Prepared (s, ps) -> (s, ps)
          | Sql sql -> (prepare t sql, None)
        in
        r.stmt <- Some stmt;
        Exec_ctx.begin_statement
          ?timeout_ms:(first limits.sl_timeout_ms t.cfg.statement_timeout_ms)
          ?spill_quota:(first limits.sl_spill_quota t.cfg.spill_quota_pages)
          ?cancel ctx;
        r.ctx <- Some ctx;
        r.started <- Unix.gettimeofday ();
        let p = plan ?params ~limits t stmt in
        r.planned <- Some p;
        r.exec_t0 <- Unix.gettimeofday ();
        let rel, io =
          if profile || t.tracer <> None then begin
            match Executor.run_profiled_result ~cold:false ctx p.plan with
            | Ok (rel, io, prof) ->
              r.profile <- Some prof;
              (rel, io)
            | Error (e, prof) ->
              r.profile <- Some prof;
              raise e
          end
          else Executor.run_measured ~cold:false ctx p.plan
        in
        r.exec_ms <- ms_between r.exec_t0 (Unix.gettimeofday ());
        r.rows <- Relation.cardinality rel;
        r.io <- io;
        (p, rel, io))
  in
  (outcome, r)

let execute_on ctx ?cancel ?params ?limits t stmt =
  get (fst (run_query ?cancel ?limits ctx t (Prepared (stmt, params))))

let fresh_ctx t = Exec_ctx.create ~work_mem:t.cfg.work_mem t.cat
let execute ?params t stmt = execute_on (fresh_ctx t) ?params t stmt
let submit t sql = get (fst (run_query (fresh_ctx t) t (Sql sql)))

let pp_analysis t ppf (p, report) =
  Format.fprintf ppf
    "plan: source=%s algorithm=%s opt_ms=%.2f plan_ms=%.2f@\n\
     search: join_plans=%d group_plans=%d dp_entries=%d pullups=%d \
     group_placement=%s@\n\
     %a"
    (source_label p.source) (algo_tag t.cfg.algorithm) p.opt_ms p.plan_ms
    p.search.Search_stats.join_plans p.search.Search_stats.group_plans
    p.search.Search_stats.entries p.search.Search_stats.pullups
    (group_placement p.plan) Explain_analyze.pp report

(* EXPLAIN ANALYZE: the query pipeline with the profiler on, the report
   zipped from the record's profile onto the plan next to the model's
   estimates (at the session's work_mem).  A failed execution still has a
   (partial) report; a failure before execution has none and raises. *)
let analyze ?(limits = no_limits) t input =
  let work_mem = Option.value ~default:t.cfg.work_mem limits.sl_work_mem in
  let res, r =
    run_query ~profile:true ~limits (Exec_ctx.create ~work_mem t.cat) t input
  in
  match r.planned, r.profile with
  | Some p, Some prof ->
    ( p,
      Result.map (fun (_, rel, _) -> rel) res,
      Explain_analyze.of_profile t.cat ~work_mem p.plan ~io:r.io
        ~wall_ms:r.exec_ms prof )
  | _ -> raise (Result.get_error res)

let explain_analyze ?params ?limits t stmt =
  analyze ?limits t (Prepared (stmt, params))

let explain_analyze_sql ?limits t sql =
  let p, res, report = analyze ?limits t (Sql sql) in
  let body = Format.asprintf "%a" (pp_analysis t) (p, report) in
  match res with
  | Ok _ -> Ok body
  | Error (Avq_error.Error e) -> Error (e, body)
  | Error e -> raise e


type error_stats = {
  io_faults : int;
  corruptions : int;
  resource_exceeded : int;
  timeouts : int;
  cancellations : int;
  bad_statements : int;
  unavailable : int;
}

let total_errors e =
  e.io_faults + e.corruptions + e.resource_exceeded + e.timeouts
  + e.cancellations + e.bad_statements + e.unavailable

type stats = {
  calls : int;
  hits : int;
  rebinds : int;
  misses : int;
  recost_fallbacks : int;
  rebind_conflicts : int;
  stale_hits : int;
  invalidations : int;
  evictions : int;
  entries : int;
  cache_bytes : int;
  opt_ms_total : float;
  opt_ms_saved : float;
  errors : error_stats;
}

let stats t =
  let c = Mutex.protect t.lock (fun () -> Plan_cache.counters t.cache) in
  {
    calls = Atomic.get t.calls;
    hits = Atomic.get t.hits;
    rebinds = Atomic.get t.rebinds;
    misses = Atomic.get t.misses;
    recost_fallbacks = Atomic.get t.recost_fallbacks;
    rebind_conflicts = Atomic.get t.rebind_conflicts;
    stale_hits = Atomic.get t.stale_hits;
    invalidations = c.Plan_cache.invalidations;
    evictions = c.Plan_cache.evictions;
    entries = c.Plan_cache.entries;
    cache_bytes = c.Plan_cache.bytes;
    opt_ms_total = Atomic.get t.opt_ms_total;
    opt_ms_saved = Atomic.get t.opt_ms_saved;
    errors =
      (let g i = Atomic.get t.errs.(i) in
       {
         io_faults = g 0;
         corruptions = g 1;
         resource_exceeded = g 2;
         timeouts = g 3;
         cancellations = g 4;
         bad_statements = g 5;
         unavailable = g 6;
       });
  }

let hit_ratio s =
  if s.calls = 0 then 0.
  else float_of_int (s.hits + s.rebinds) /. float_of_int s.calls

let pp_stats fmt s =
  Format.fprintf fmt
    "@[<v>plan cache: %d calls, %d hits + %d rebinds (ratio %.2f), %d misses@,\
     fallbacks: %d recost, %d rebind-conflict; stale hits: %d@,\
     entries: %d (%d bytes), evictions: %d, invalidations: %d@,\
     optimizer ms: %.1f spent, %.1f saved@,\
     errors: %d (%d io-fault, %d corruption, %d resource, %d timeout, \
     %d cancelled, %d bad-statement, %d unavailable)@]"
    s.calls s.hits s.rebinds (hit_ratio s) s.misses s.recost_fallbacks
    s.rebind_conflicts s.stale_hits s.entries s.cache_bytes s.evictions
    s.invalidations s.opt_ms_total s.opt_ms_saved (total_errors s.errors)
    s.errors.io_faults s.errors.corruptions s.errors.resource_exceeded
    s.errors.timeouts s.errors.cancellations s.errors.bad_statements
    s.errors.unavailable

let invalidate_all t = Mutex.protect t.lock (fun () -> Plan_cache.clear t.cache)

(* ==== DML / materialized-view DDL ==== *)

let bad_stmt fmt =
  Format.kasprintf
    (fun m -> Avq_error.error (Avq_error.Bad_statement m))
    fmt

(* The prepare stage of a write: parse, bind and validate outside the lock,
   returning the apply stage.  Apply runs under the service lock (which
   also guards the matview registry): holding it across the catalog
   mutation means no planner observes a half-applied write.  The epoch bump
   inside [Catalog.insert] / the extent swap invalidates cached plans on
   their next lookup.  Apply returns a human-readable completion tag. *)
let prepare_update t sql =
  match Parser.parse_script sql with
  | [ Sql_ast.S_insert { it_table; it_rows } ] ->
    if
      String.length it_table >= String.length Matview.backing_prefix
      && String.sub it_table 0 (String.length Matview.backing_prefix)
         = Matview.backing_prefix
    then bad_stmt "INSERT into a materialized-view extent is not allowed";
    if Sysview.is_system_table it_table then
      bad_stmt "INSERT into a system view is not allowed";
    let rows = Binder.bind_insert t.cat ~table:it_table it_rows in
    fun () ->
      (* Write-ahead: the bound rows hit the log (and, in always mode, the
         disk) before the catalog mutates.  Replay re-runs
         [Catalog.insert], which re-synthesizes identical [_rid]s. *)
      let lsn = wal_append_locked t (Wal.Insert { table = it_table; rows }) in
      let stored = Catalog.insert t.cat ~table:it_table rows in
      let versions_before =
        List.map
          (fun v -> (v.Matview.mv_name, v.Matview.mv_versions))
          (Matview.views t.mviews)
      in
      Matview.on_insert t.cat t.mviews ~table:it_table ~rows:stored;
      (* Informational markers for each view that absorbed the delta (its
         version vector moved); covered by the insert's commit. *)
      List.iter
        (fun v ->
          match List.assoc_opt v.Matview.mv_name versions_before with
          | Some old when old <> v.Matview.mv_versions ->
            ignore
              (wal_append_locked t
                 (Wal.Mv_delta
                    { view = v.Matview.mv_name; table = it_table;
                      rows = List.length stored }))
          | _ -> ())
        (Matview.views t.mviews);
      wal_commit_locked t lsn;
      Printf.sprintf "INSERT %d" (List.length stored)
  | [ Sql_ast.S_create_matview { mv_name; mv_body } ] ->
    let def = Binder.bind_matview_body t.cat ~name:mv_name mv_body in
    let sql_text = Pretty.select_to_string mv_body in
    fun () ->
      let lsn =
        wal_append_locked t
          (Wal.Create_matview { name = mv_name; sql = sql_text })
      in
      let mv =
        Matview.create_view ~options:(options t) t.cat t.mviews ~name:mv_name
          ~sql:sql_text def
      in
      wal_commit_locked t lsn;
      Printf.sprintf "CREATE MATERIALIZED VIEW %s (%d groups)" mv_name
        (Matview.row_count t.cat mv)
  | [ Sql_ast.S_drop_matview name ] ->
    fun () ->
      let lsn = wal_append_locked t (Wal.Drop_matview name) in
      Matview.drop t.cat t.mviews name;
      wal_commit_locked t lsn;
      Printf.sprintf "DROP MATERIALIZED VIEW %s" name
  | [ Sql_ast.S_refresh_matview name ] ->
    fun () ->
      let lsn = wal_append_locked t (Wal.Refresh_matview name) in
      Matview.refresh ~options:(options t) t.cat t.mviews name;
      (* The commit lands only after the refresh finished: an abort or crash
         mid-refresh leaves an uncommitted record that replay drops, so the
         recovered view is wholly old or wholly new. *)
      wal_commit_locked t lsn;
      let mv = Option.get (Matview.find t.mviews name) in
      Printf.sprintf "REFRESH MATERIALIZED VIEW %s (%d groups)" name
        (Matview.row_count t.cat mv)
  | _ -> bad_stmt "expected exactly one INSERT / MATERIALIZED VIEW statement"

let wal_appended t =
  match t.wal with Some w -> (Wal.stats w).Wal.appended_bytes | None -> 0

(* Writes: prepare → apply.  Their record is keyed on a fingerprint of the
   trimmed text and charged the WAL bytes the apply stage appended
   (measured under the lock, so no other statement's traffic lands in
   it). *)
let exec_statement t sql =
  let r = new_record (String.trim sql) in
  get
    (run_stages t r (fun () ->
         let apply = typed (fun () -> prepare_update t sql) in
         r.started <- Unix.gettimeofday ();
         r.exec_t0 <- r.started;
         let tag =
           Mutex.protect t.lock (fun () ->
               let before = wal_appended t in
               Fun.protect
                 ~finally:(fun () -> r.wal_bytes <- wal_appended t - before)
                 (fun () -> typed apply))
         in
         r.exec_ms <- ms_between r.exec_t0 (Unix.gettimeofday ());
         tag))

let render_matviews t =
  Mutex.protect t.lock (fun () ->
      match Matview.views t.mviews with
      | [] -> "no materialized views"
      | vs ->
        let buf = Buffer.create 256 in
        List.iteri
          (fun i mv ->
            if i > 0 then Buffer.add_char buf '\n';
            let state =
              if Matview.is_fresh t.cat mv then "fresh"
              else "STALE (refresh required)"
            in
            let versions =
              String.concat ", "
                (List.map
                   (fun (tb, v) ->
                     let cur = Catalog.table_version t.cat tb in
                     if cur = v then Printf.sprintf "%s@%d" tb v
                     else Printf.sprintf "%s@%d (now %d)" tb v cur)
                   mv.Matview.mv_versions)
            in
            Buffer.add_string buf
              (Printf.sprintf "%s: %d groups, %s, absorbed %s\n  AS %s"
                 mv.Matview.mv_name
                 (Matview.row_count t.cat mv)
                 state versions mv.Matview.mv_sql))
          vs;
        Buffer.contents buf)

(* ==== concurrent worker pool ==== *)

module Pool = struct
  type service = t

  type outcome = (planned * Relation.t * Buffer_pool.stats, exn) result

  type future = {
    fm : Mutex.t;
    fc : Condition.t;
    mutable result : outcome option;
    fcancel : bool Atomic.t;
        (* shared with the executing worker's statement; setting it makes
           the job resolve to [Error (Avq_error.Error Cancelled)] at its
           next batch boundary (or immediately, if not yet started) *)
  }

  type job = { input : input; limits : session_limits; fut : future }

  type t = {
    svc : service;
    qm : Mutex.t;
    qc : Condition.t;
    jobs : job Queue.t;
    mutable stopping : bool;
    mutable domains : unit Domain.t list;
    nworkers : int;
    executed : int Atomic.t;
  }

  let fulfil fut outcome =
    Mutex.protect fut.fm (fun () ->
        fut.result <- Some outcome;
        Condition.broadcast fut.fc)

  (* Worker body: one private [Exec_ctx] for the domain's whole lifetime
     (temps are cleaned per run; the context is just the temp registry and
     work_mem).  Every statement failure lands in the job's future through
     the pipeline's outcome; the worker itself never dies early. *)
  let worker pool () =
    let ctx = Exec_ctx.create ~work_mem:pool.svc.cfg.work_mem pool.svc.cat in
    let rec loop () =
      let job =
        Mutex.protect pool.qm (fun () ->
            let rec wait () =
              if not (Queue.is_empty pool.jobs) then Some (Queue.pop pool.jobs)
              else if pool.stopping then None
              else begin
                Condition.wait pool.qc pool.qm;
                wait ()
              end
            in
            wait ())
      in
      match job with
      | None -> ()
      | Some { input; limits; fut } ->
        let outcome =
          match run_query ~cancel:fut.fcancel ~limits ctx pool.svc input with
          | outcome, _ -> outcome
          | exception e -> Error e
        in
        Atomic.incr pool.executed;
        fulfil fut outcome;
        loop ()
    in
    loop ()

  let create ?(workers = 4) svc =
    if workers < 1 then invalid_arg "Service.Pool.create: workers < 1";
    let pool =
      {
        svc;
        qm = Mutex.create ();
        qc = Condition.create ();
        jobs = Queue.create ();
        stopping = false;
        domains = [];
        nworkers = workers;
        executed = Atomic.make 0;
      }
    in
    pool.domains <-
      List.init workers (fun _ -> Domain.spawn (worker pool));
    (* Re-creating a pool over the same service re-points these at the new
       pool (same name+labels replaces in the registry). *)
    Metrics.gauge svc.metrics "avq_pool_workers"
      ~help:"Executor worker domains" (fun () -> float_of_int pool.nworkers);
    Metrics.gauge svc.metrics "avq_pool_queue_depth"
      ~help:"Jobs waiting in the pool queue" (fun () ->
        float_of_int (Mutex.protect pool.qm (fun () -> Queue.length pool.jobs)));
    Metrics.fn_counter svc.metrics "avq_pool_executed_total"
      ~help:"Jobs completed by the pool (successfully or not)" (fun () ->
        float_of_int (Atomic.get pool.executed));
    pool

  let workers t = t.nworkers
  let executed t = Atomic.get t.executed
  let service t = t.svc

  let enqueue t input limits =
    let fut =
      {
        fm = Mutex.create ();
        fc = Condition.create ();
        result = None;
        fcancel = Atomic.make false;
      }
    in
    Mutex.protect t.qm (fun () ->
        if t.stopping then
          invalid_arg "Service.Pool: submit after shutdown";
        Queue.push { input; limits; fut } t.jobs;
        Condition.signal t.qc);
    fut

  let submit ?params ?(limits = no_limits) t stmt =
    enqueue t (Prepared (stmt, params)) limits

  let submit_sql ?(limits = no_limits) t sql = enqueue t (Sql sql) limits

  (* Cooperative: the executing worker observes the token at its next batch
     boundary; a job still queued fails its initial check instead of
     starting.  Either way the worker survives and the future resolves. *)
  let cancel fut = Atomic.set fut.fcancel true

  (* Non-blocking: lets a connection handler interleave "is it done yet?"
     with watching its client socket for disconnects. *)
  let peek fut = Mutex.protect fut.fm (fun () -> fut.result <> None)

  let await fut =
    let outcome =
      Mutex.protect fut.fm (fun () ->
          let rec wait () =
            match fut.result with
            | Some o -> o
            | None ->
              Condition.wait fut.fc fut.fm;
              wait ()
          in
          wait ())
    in
    get outcome

  let shutdown t =
    let ds =
      Mutex.protect t.qm (fun () ->
          if t.stopping then []
          else begin
            t.stopping <- true;
            Condition.broadcast t.qc;
            let ds = t.domains in
            t.domains <- [];
            ds
          end)
    in
    List.iter Domain.join ds

  let with_pool ?workers svc f =
    let pool = create ?workers svc in
    Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)
end
