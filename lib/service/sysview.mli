(** System views: observability state exposed as queryable relations.

    Four synthesized tables — [avq_stat_statements] (per-fingerprint
    cumulative statement statistics from {!Stmt_stats}),
    [avq_stat_tables] (per-table cardinality/pages/indexes/version),
    [avq_stat_matviews] (materialized-view freshness) and
    [avq_server_sessions] (live TCP sessions, when a server installed its
    provider) — are materialized into the catalog with
    {!Catalog.put_system_table} right before a statement that references
    one is bound.  From there the normal binder → optimizer → executor →
    wire pipeline applies: [SELECT * FROM avq_stat_statements ORDER BY
    total_ms DESC LIMIT 5] needs no special evaluation path. *)

val is_system_table : string -> bool
(** Is this one of the four synthesized view names?  Checkpoints must skip
    them; INSERT into them is refused. *)

val references_system_view : string -> bool
(** Case-insensitive substring scan of raw SQL for ["avq_stat_"] /
    ["avq_server_"] — the refresh trigger.  May report false positives
    (costing only an extra snapshot); never false negatives. *)

(** One live TCP session, as reported by the server's provider hook.
    [-1] in an override field means "inherit the service config". *)
type session_row = {
  ss_sid : int;
  ss_work_mem : int;
  ss_timeout_ms : float;
  ss_spill_quota : int;
  ss_prepared : int;
}

val set_session_provider : (unit -> session_row list) -> unit
(** Install the [avq_server_sessions] source (called by [Server.start];
    one provider per process). *)

val clear_session_provider : unit -> unit

val refresh : Catalog.t -> stats:Stmt_stats.t -> mviews:Matview.t -> unit
(** Re-materialize all four views from current state (caller holds the
    service statement lock).  Bumps the catalog epoch, invalidating plans
    cached over the previous snapshot. *)
