(** The session layer: a long-lived query service over one catalog.

    Amortizes optimizer work across repeated parameterized queries: each
    incoming query is canonicalized ({!Canon}), fingerprinted
    ({!Fingerprint}) and looked up in an LRU plan cache ({!Plan_cache}).
    On a hit the cached plan template is re-bound to the call's parameter
    values ({!Plan_rebind}) and re-costed; if the re-costed estimate drifts
    beyond [recost_ratio] times the cost the template was cached at, the
    template is considered parameter-sensitive for these values and the
    query is re-optimized from scratch (preserving the paper's
    "never worse than traditional" guarantee, which only holds for plans
    the optimizer actually picked for the parameters at hand).  Plans from
    an older catalog epoch are never served.

    The service is shared-state safe: the plan cache and its counters live
    behind a {!Sync} mutex (one critical section per {!plan} call, so an
    optimization is paid once per (fingerprint, algo, work_mem) even when
    workers race on a cold key), per-call counters are atomics, and
    execution runs outside any lock on the caller's own {!Exec_ctx} with
    delta-based per-domain IO measurement.  {!Pool} puts N executor worker
    domains behind a job queue over one shared service. *)

type config = {
  algorithm : Optimizer.algorithm;
  work_mem : int;
  paper : Paper_opt.options;
  max_entries : int;  (** plan-cache capacity, entries *)
  max_bytes : int;  (** plan-cache capacity, bytes-ish *)
  recost_ratio : float;
      (** serve a re-bound template only while its re-costed estimate is
          within this factor of the cost it was cached at (>= 1.0) *)
  cache_enabled : bool;  (** [false] = optimize every call (baseline) *)
  statement_timeout_ms : float option;
      (** per-statement deadline covering planning + execution; exceeding it
          raises [Avq_error.Error (Timeout _)] at the next batch boundary *)
  spill_quota_pages : int option;
      (** cumulative temp pages a statement may allocate before
          [Avq_error.Error (Resource_exceeded _)] *)
  dop : int;
      (** degree of intra-query parallelism handed to the optimizer; plans
          cached at one dop are not served at another (the key includes
          it) *)
}

val default_config : config
(** [Paper] algorithm, 32 pages work_mem, 128 entries / 4 MiB cache,
    recost ratio 10.0, cache on, no timeout or spill quota, serial
    ([dop = 1]).  Statements always run on the batch executor. *)

type t

val create : ?config:config -> ?mviews:Matview.t -> Catalog.t -> t
(** [mviews] injects a pre-populated matview registry (startup recovery);
    by default the service starts with an empty one. *)

val catalog : t -> Catalog.t
val config : t -> config

(** {1 Durability}

    With a WAL attached, every mutating statement (INSERT,
    CREATE/DROP/REFRESH MATERIALIZED VIEW) appends its record to the log —
    fsynced per the writer's mode — {e before} the catalog mutates, and
    seals it with a commit record once the mutation is complete.  Recovery
    ({!Recovery.recover}) replays exactly the committed records, so a crash
    at any instant loses at most unacknowledged statements. *)

val attach_wal :
  t ->
  data_dir:string ->
  ?checkpoint_bytes:int ->
  ?recovery:Recovery.stats ->
  Wal.writer ->
  unit
(** Attach a WAL writer (usually the one {!Recovery.recover} returned) and
    register the [avq_wal_*] / [avq_checkpoints_*] metric families (plus
    [avq_recovery_*] when startup recovery stats are given).
    [checkpoint_bytes] arms size-triggered checkpointing: once the log
    reaches that many bytes, the next committed mutation checkpoints and
    truncates it. *)

val wal : t -> Wal.writer option

val checkpoint : t -> string
(** Write a checkpoint now (under the statement lock): [Checkpoint_begin]
    marker → {!Checkpoint.write} (buffer-pool flush + atomic snapshot) →
    [Checkpoint_end] → WAL truncation.  Returns a human-readable completion
    tag; reports "skipped" when no WAL is attached. *)

val auto_dop : workers:int -> int
(** Core-aware default degree of intra-query parallelism:
    [Domain.recommended_domain_count ()] divided among [workers] concurrent
    pool workers, never below 1.  Used when no explicit [--dop] is given. *)

(** {1 Per-session limits}

    One shared service can serve sessions with different [SET] values:
    every field is an override of the corresponding config knob ([None] =
    inherit).  [sl_dop] and [sl_work_mem] participate in planning and are
    part of the plan-cache key, so sessions at different settings never
    serve each other's plans. *)

type session_limits = {
  sl_timeout_ms : float option;
  sl_spill_quota : int option;
  sl_dop : int option;
  sl_work_mem : int option;
  sl_sid : int option;
      (** server session/connection id — not a limit, but carried here so
          the execution path can stamp slow-log lines and traces with the
          connection that ran the statement *)
}

val no_limits : session_limits
(** Inherit every config default. *)

(** {1 Statements} *)

type stmt
(** A prepared statement: canonical template, fingerprint and the parameter
    vector extracted from the statement's own literals. *)

val prepare : t -> string -> stmt
(** Parse, bind and canonicalize an SQL script (CREATE VIEWs followed by one
    SELECT).  Lex, parse and bind failures raise
    [Avq_error.Error (Bad_statement _)].  Preparing alone is not a
    statement: nothing is counted (see {!submit} for that). *)

val prepare_query : t -> Block.query -> stmt
(** Same, for an already-bound query (workload generators, tests). *)

val stmt_fingerprint : stmt -> string
(** Template fingerprint in hex. *)

val stmt_params : stmt -> Value.t list
(** The parameter vector extracted at prepare time. *)

(** {1 Execution}

    Every statement runs one staged pipeline — a query prepare → plan →
    execute, a write ({!exec_statement}) prepare → apply — that fills one
    per-statement record.  Counting, latency/IO histograms (successes
    only), {!Stmt_stats}, [avq_errors_total], traces and the slow log are
    all read from that record in one place.  Lex, parse and bind errors are
    typed ([Bad_statement]) in the prepare stage; an untyped exception is
    an engine bug, recorded with error class ["exception"] and re-raised. *)

type source =
  | Hit  (** cached plan served as-is (identical parameters) *)
  | Hit_rebound  (** cached template re-bound to new parameters *)
  | Miss  (** no usable entry; optimized and cached *)
  | Recost_fallback
      (** template found but re-costed beyond [recost_ratio]; re-optimized *)
  | Rebind_conflict
      (** template found but value-directed re-binding was ambiguous;
          re-optimized *)
  | Uncached  (** cache disabled *)

val source_label : source -> string

type planned = {
  plan : Physical.t;
  est : Cost_model.est;
  source : source;
  opt_ms : float;  (** optimizer time this call actually spent (0 on hits) *)
  plan_ms : float;  (** end-to-end planning time incl. cache work *)
  search : Search_stats.t;
      (** optimizer search effort (from the original optimization when the
          plan was served from cache) *)
  rewrite : Matview.decision;
      (** what the materialized-view matcher decided for this plan
          ([From_cache] when the plan was served from the cache) *)
}

val plan : ?params:Value.t list -> ?limits:session_limits -> t -> stmt -> planned
(** Produce an executable plan for the statement bound to [params]
    (default: the literals it was prepared with).  [limits] may override
    the session's [dop] and [work_mem] for this call (cache-key aware).
    @raise Invalid_argument if [params] has the wrong arity. *)

val execute :
  ?params:Value.t list -> t -> stmt -> planned * Relation.t * Buffer_pool.stats
(** {!plan}, then run on the service's warm buffer pool, measuring IO
    (delta of the calling domain's tally — safe under concurrency). *)

val execute_on :
  Exec_ctx.t -> ?cancel:bool Atomic.t -> ?params:Value.t list ->
  ?limits:session_limits -> t -> stmt ->
  planned * Relation.t * Buffer_pool.stats
(** Like {!execute} but on a caller-supplied context (pool workers reuse
    one private context per domain).  Arms the context's statement limits
    from the service config overridden by [limits] (a [sl_work_mem]
    override executes on a fresh context at that budget); [cancel] is an
    externally-settable abort token.  A failing statement bumps the
    matching typed-error counter (see {!error_stats}) and re-raises. *)

val record_error : t -> Avq_error.t -> unit
(** Count a typed failure that is not a statement — the network front
    end's admission rejections and oversized replies — so {!error_stats}
    and the [avq_errors_total] family stay the single source of truth. *)

val submit : t -> string -> planned * Relation.t * Buffer_pool.stats
(** Prepare, plan and execute SQL text as one statement (one that fails to
    prepare is recorded under the fingerprint of its trimmed text). *)

(** {1 Observability} *)

val metrics : t -> Metrics.t
(** The service's metrics registry: buffer-pool, plan-cache, error,
    statement and pool families, exportable as JSON
    ({!Metrics.to_json}) or Prometheus text ({!Metrics.to_prometheus}). *)

val stats_store : t -> Stmt_stats.t
(** The always-on per-fingerprint statement statistics.  The pipeline
    records exactly one observation per [avq_statements_total] increment,
    so total calls across fingerprints track that counter until eviction or
    {!Stmt_stats.reset} discards history. *)

val set_tracer : t -> Trace.tracer option -> unit
(** Install (or remove) the statement tracer.  When set, every statement
    emits one span tree from its record's stage boundaries — statement →
    parse / canonicalize / plan / execute → per-operator spans (a write:
    parse / apply) — and slow statements hit the slow-query log. *)

val tracer : t -> Trace.tracer option

val explain_analyze :
  ?params:Value.t list ->
  ?limits:session_limits ->
  t ->
  stmt ->
  planned * (Relation.t, exn) result * Explain_analyze.t
(** Run the statement with the profiler on and [limits] applied, and
    return the estimated-vs-actual tree (costed at the session's work_mem).
    A failing execution still returns the (partial) tree with its [error]
    set; a failure before execution raises. *)

val explain_analyze_sql :
  ?limits:session_limits ->
  t ->
  string ->
  (string, Avq_error.t * string) result
(** {!explain_analyze} of SQL text, rendered by {!pp_analysis}; a typed
    execution failure comes with the partial report. *)

val pp_analysis :
  t -> Format.formatter -> planned * Explain_analyze.t -> unit
(** Render {!explain_analyze} output: an optimizer header (plan source,
    algorithm, search-effort counters, group-by placement) followed by the
    per-node estimated-vs-actual tree with q-errors. *)

val group_placement : Physical.t -> string
(** Where group-bys sit relative to joins in a plan: ["early"] (below a
    join — the paper's push-down shape), ["late"], ["mixed"] or ["none"]. *)

type error_stats = {
  io_faults : int;
  corruptions : int;
  resource_exceeded : int;
  timeouts : int;
  cancellations : int;
  bad_statements : int;
  unavailable : int;
}
(** Failed statements by {!Avq_error} kind.  [calls] counts planning
    requests, so the cache-counter sum invariant is unaffected by failures
    during execution. *)

val total_errors : error_stats -> int

type stats = {
  calls : int;  (** plan/execute requests *)
  hits : int;  (** served from cache (as-is) *)
  rebinds : int;  (** served from cache after re-binding *)
  misses : int;  (** optimized because nothing usable was cached *)
  recost_fallbacks : int;
  rebind_conflicts : int;
  stale_hits : int;  (** must stay 0: plans served under a wrong epoch *)
  invalidations : int;
      (** entries dropped for a stale epoch or by {!invalidate_all} *)
  evictions : int;
  entries : int;
  cache_bytes : int;
  opt_ms_total : float;  (** optimizer wall time actually spent *)
  opt_ms_saved : float;
      (** sum over cache-served calls of the original optimization time of
          the served template — the work the cache avoided re-doing *)
  errors : error_stats;
}

val stats : t -> stats
val hit_ratio : stats -> float
(** (hits + rebinds) / calls; 0 on no calls. *)

val pp_stats : Format.formatter -> stats -> unit

val invalidate_all : t -> unit
(** Drop every cached plan, counting each as an invalidation. *)

(** {1 Writes and materialized views}

    The only mutating statements the engine supports:
    [INSERT INTO t VALUES ...] and
    [CREATE / DROP / REFRESH MATERIALIZED VIEW].  They run under the
    service lock; the catalog epoch bump invalidates cached plans, and
    inserts are offered to the matview registry for incremental
    maintenance. *)

val matviews : t -> Matview.t
(** The service's materialized-view registry (access it only from the
    statement path or tests — the service lock guards it). *)

val exec_statement : t -> string -> string
(** Execute one INSERT / CREATE / DROP / REFRESH MATERIALIZED VIEW
    statement, returning a completion tag such as ["INSERT 3"].
    Raises [Avq_error.Error (Bad_statement _)] (counted in
    {!error_stats}) on anything else or on lex, parse, bind or definition
    errors. *)

val render_matviews : t -> string
(** Multi-line listing for the [\dm] session directive: per view its name,
    group count, freshness, absorbed base-table versions and defining
    query. *)

(** {1 Concurrent worker pool}

    N executor workers, each an OCaml 5 domain with its own private
    {!Exec_ctx}, pull jobs from a Mutex/Condition work queue and resolve
    futures.  All workers share the service's plan cache, so optimization
    cost is amortized across clients, not just across calls; execution
    itself runs in parallel, outside the service lock. *)
module Pool : sig
  type service := t
  type t

  type future
  (** Handle for one submitted job; resolves to the same triple
      {!Service.execute} returns, or re-raises the job's exception. *)

  val create : ?workers:int -> service -> t
  (** Spawn [workers] (default 4) executor domains over a shared service.
      @raise Invalid_argument if [workers < 1]. *)

  val workers : t -> int
  val service : t -> service

  val executed : t -> int
  (** Jobs completed (successfully or not) so far. *)

  val submit : ?params:Value.t list -> ?limits:session_limits -> t -> stmt -> future
  (** Enqueue a prepared statement (with optional parameter re-binding and
      per-session limit overrides).
      @raise Invalid_argument after {!shutdown}. *)

  val submit_sql : ?limits:session_limits -> t -> string -> future
  (** Enqueue raw SQL; the worker does prepare + plan + execute, so parsing
      and binding also run off the submitting thread.  Lex/parse/bind
      failures resolve the future with a typed [Avq_error.Bad_statement]
      and are counted like any failed statement. *)

  val cancel : future -> unit
  (** Request cancellation of one job.  Cooperative: an executing worker
      observes the token at its next batch boundary (a queued job fails its
      initial check instead of starting) and resolves the future with
      [Avq_error.Error Cancelled]; the worker itself keeps running. *)

  val peek : future -> bool
  (** Whether the job has resolved (non-blocking).  Connection handlers
      interleave this with watching their client socket, so a disconnect
      mid-statement can {!cancel} the job. *)

  val await : future -> planned * Relation.t * Buffer_pool.stats
  (** Block until the job finishes.  Re-raises the worker-side exception
      if the job failed. *)

  val shutdown : t -> unit
  (** Drain remaining jobs, stop the workers and join their domains.
      Idempotent. *)

  val with_pool : ?workers:int -> service -> (t -> 'a) -> 'a
  (** [with_pool svc f] runs [f] over a fresh pool and always shuts it
      down, even if [f] raises. *)
end
