(** Batch replay of a query file through one service instance.

    Input format matches the interactive shell: statements are terminated
    by [;;] (each statement may itself be a script of [;]-separated CREATE
    VIEWs ending in a SELECT).  Lines whose first non-blank characters are
    [--] are comments.

    Three non-SQL forms are recognized per statement:
    - [\metrics] (or [\metrics prom]): dump the service's metrics registry
      as JSON (or Prometheus text) at that point in the replay;
    - [\dm]: list materialized views (name, group count, freshness,
      absorbed base-table versions, definition);
    - [EXPLAIN ANALYZE <sql>]: run the statement under per-operator
      profiling and render the estimated-vs-actual tree with q-errors.

    Mutating statements (INSERT, CREATE / DROP / REFRESH MATERIALIZED
    VIEW) are routed through {!Service.exec_statement} and report a
    completion tag instead of a row count. *)

val split_statements : string -> string list
(** Strip comment lines and split on [;;]; empty statements are dropped. *)

(** How one statement is routed; shared with the network server so [avq
    serve] speaks exactly the session statement language. *)
type classified =
  | Directive_metrics of [ `Json | `Prometheus ]
  | Directive_stats of [ `Show | `Reset ]
      (** [\stats] / [\stats reset]: render the top statement statistics
          ({!Stmt_stats}) or drop every tracked entry *)
  | Directive_matviews
  | Directive_checkpoint
      (** [\checkpoint]: snapshot catalog + matviews to the data directory
          and truncate the WAL; a barrier in pool replay *)
  | Explain_analyze of string
  | Update of string
      (** INSERT or MATERIALIZED VIEW DDL: mutates shared state, so pool
          replay treats it as a barrier *)
  | Plain of string

val classify : string -> classified

val run_stats : Service.t -> [ `Show | `Reset ] -> string
(** Render the top tracked statements as an aligned table, or reset the
    store and report that. *)

type outcome =
  | Executed of Service.planned * Relation.t
      (** planned + result of a plain statement *)
  | Rendered of string
      (** output of a directive or an [EXPLAIN ANALYZE] *)
  | Completed of string
      (** completion tag of a write or [\checkpoint] *)
  | Failed of { kind : string; detail : string }
      (** a typed failure: {!Avq_error.kind_label} and
          {!Avq_error.to_string}, followed by the partial report of a failed
          [EXPLAIN ANALYZE] *)

type line = { index : int; sql : string; outcome : outcome }

val dispatch :
  ?limits:Service.session_limits ->
  query:(string -> unit -> Service.planned * Relation.t * Buffer_pool.stats) ->
  run:([ `Directive | `Barrier | `Query ] -> (unit -> outcome) -> 'a) ->
  Service.t ->
  classified ->
  'a
(** The one place a classified statement is executed; {!replay},
    {!replay_pool} and the network server differ only in the two hooks.
    [query sql] starts a plain query and returns the function that awaits
    its result (it is called before [run], so a pool may submit eagerly).
    [run schedule work] decides when and how [work] runs: [`Directive] is a
    read-only directive, [`Barrier] a statement that must run alone
    (writes, [\checkpoint], [EXPLAIN ANALYZE]), [`Query] a plain query.
    [work] turns typed failures into {!Failed}; untyped exceptions (engine
    bugs) propagate.  [limits] applies to [EXPLAIN ANALYZE]. *)

val replay : Service.t -> string -> line list
(** Run every statement in order, executing each against the service's
    catalog. Statements that fail to bind or parse are reported in their
    [outcome] and do not stop the replay.  A {!Lifecycle} drain stops the
    replay at the next statement boundary: finished lines keep their
    outcomes, the rest are never started. *)

val replay_pool : Service.Pool.t -> string -> line list
(** Like {!replay} but through a worker pool: runs of consecutive plain
    queries are submitted up front and awaited in order, so the per-line
    report is deterministic while prepare + plan + execute run concurrently
    on the workers.  Every other statement (writes, directives,
    [EXPLAIN ANALYZE]) is a barrier: it runs alone, after all earlier
    statements completed and before any later one is submitted. *)

val report : Format.formatter -> Service.t -> line list -> unit
(** Human-readable per-statement lines followed by the service's cache
    statistics. *)
