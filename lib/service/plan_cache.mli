(** LRU cache of optimized plan templates.

    Keys are composed by the caller from (query fingerprint, algorithm,
    work_mem); the catalog epoch the plan was optimized under is stored in
    the entry and checked on every lookup, so a plan from before a DDL
    change or statistics refresh is never served — it is dropped at lookup
    time and counted as an invalidation.  Capacity is bounded both by entry
    count and by a bytes-ish size estimate of the stored plans; eviction is
    strict LRU. *)

type entry = {
  key : string;
  template : string;  (** canonical query text (diagnostics) *)
  params : Value.t list;  (** parameter vector the plan was optimized for *)
  plan : Physical.t;
  est : Cost_model.est;
  search : Search_stats.t;
  opt_ms : float;  (** what the original optimization cost *)
  epoch : int;  (** catalog epoch at optimization time *)
  mv : string option;
      (** materialized view the plan reads from, when it is a view rewrite.
          Such a plan embeds the view's covered predicates implicitly (their
          constants are baked into the extent's contents), so it must never
          be re-bound to different parameters — the service re-optimizes
          instead of rebinding when this is set. *)
  bytes : int;
}

type counters = {
  evictions : int;  (** entries dropped to stay within capacity *)
  invalidations : int;  (** entries dropped on lookup for a stale epoch *)
  entries : int;  (** current population *)
  bytes : int;  (** current bytes-ish total *)
}

type t

val create : ?max_entries:int -> ?max_bytes:int -> unit -> t
(** Defaults: 128 entries, 4 MiB. *)

val find : t -> string -> epoch:int -> entry option
(** Epoch-checked lookup; a found entry becomes most-recently used.  An
    entry with a different epoch is removed, counted as an invalidation,
    and reported as absent. *)

val add : t -> entry -> unit
(** Insert (replacing any entry under the same key, not counted as an
    eviction), then evict least-recently-used entries while over either
    capacity bound. *)

val clear : t -> unit
(** Drop every entry, counting each as an invalidation. *)

val keys_lru : t -> string list
(** Keys from least- to most-recently used (inspection and tests). *)

val counters : t -> counters
