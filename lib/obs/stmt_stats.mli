(** Always-on per-statement cumulative statistics, keyed by the plan-cache
    fingerprint (hex form).

    Sharded over [nshards] mutex-protected hash tables, so one record takes
    one shard lock; safe to call from any domain.  Cardinality is bounded:
    a full shard evicts its least-recently-used fingerprint (counted by
    {!evictions}).  Latency quantiles come from a per-entry fixed-bucket
    histogram over {!Metrics.Histogram.latency_ms_buckets}, so they agree
    with scrape-side quantiles over the registry histogram. *)

type t

val create : ?max_entries:int -> unit -> t
(** [max_entries] bounds fingerprints across all shards (default 2048).
    @raise Invalid_argument when below the shard count. *)

val record :
  t ->
  fp:string ->
  query:string ->
  ?error:string ->
  ?rows:int ->
  ?pages:int ->
  ?spill_bytes:int ->
  ?cache_hit:bool ->
  ?rebind:bool ->
  ?mv_hit:bool ->
  ?wal_bytes:int ->
  ms:float ->
  unit ->
  unit
(** Record one completed (or failed: [?error] is the error class) statement
    execution under fingerprint [fp].  [query] is the canonical template,
    stored truncated on first touch. *)

type stat = {
  fingerprint : string;
  query : string;
  calls : int;
  errors : int;
  error_classes : (string * int) list;
  total_ms : float;
  mean_ms : float;
  min_ms : float;
  max_ms : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  rows : int;
  pages : int;
  spill_bytes : int;
  cache_hits : int;
  rebinds : int;
  mv_hits : int;
  wal_bytes : int;
}

val snapshot : t -> stat list
(** All tracked statements, sorted by [total_ms] descending. *)

val top : ?n:int -> t -> stat list
(** First [n] (default 10) of {!snapshot}. *)

val reset : t -> unit
(** Drop every entry. {!recorded} and {!evictions} keep counting. *)

val tracked : t -> int
(** Fingerprints currently tracked. *)

val evictions : t -> int
(** Entries dropped by the LRU cardinality bound since creation. *)

val recorded : t -> int
(** Total observations recorded since creation (monotonic; survives
    {!reset} and eviction). *)

val total_calls : t -> int
(** Sum of [calls] over live entries.  Equals {!recorded} only while no
    eviction or reset has discarded history — the sum-invariant tests rely
    on exactly that. *)

val to_json_top : ?n:int -> t -> string
(** Top-[n] entries as one JSON document (the [/statements] HTTP body). *)

val register_metrics : t -> Metrics.t -> unit
(** Expose the store's meta-instruments ([avq_stat_statements_tracked],
    [avq_stat_evictions_total], [avq_stat_recorded_total]) on a registry. *)
