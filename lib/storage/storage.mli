(** Storage manager: one buffer pool, file-id allocation, temp files.

    All heap files and indexes of a database instance share one pool so that
    measured IO reflects cross-operator cache effects (e.g. a small dimension
    table staying resident across a nested-loop join). *)

type t

val create : ?frames:int -> unit -> t
(** [create ~frames ()] builds a manager whose pool holds [frames] pages
    (default 256). *)

val pool : t -> Buffer_pool.t

val create_heap : t -> Schema.t -> Heap_file.t
(** Allocate a fresh file id and an empty heap file for it. *)

val build_index : t -> Heap_file.t -> column:int -> Btree.t
(** Index column [column] of every tuple currently in the heap file. *)

val create_temp : t -> Schema.t -> Heap_file.t
(** A temp heap file (spill partition, sort run, materialized intermediate).
    Its page IO is charged like any other file. *)

val drop_temp : t -> Heap_file.t -> unit
(** Release a temp file's frames without write-back. *)

val live_temps : t -> int
(** Temp files created and not yet dropped, across all domains.  Non-zero
    after every statement of a run has finished means a leak. *)

val io_stats : t -> Buffer_pool.stats
(** Global cumulative pool counters (all domains). *)

val reset_io : t -> unit
(** Zero the global counters.  Single-threaded cold-benchmark use only —
    never call while another domain may be measuring (see {!io_snapshot}). *)

val io_snapshot : t -> Buffer_pool.stats
(** The calling domain's cumulative IO tally; pair with {!io_since} to
    measure a window without touching shared state.  File-id allocation and
    all pool operations are domain-safe, so snapshots from concurrent
    workers never interfere. *)

val io_since : t -> Buffer_pool.stats -> Buffer_pool.stats
(** [io_since t before] — IO this domain incurred since [before] was
    taken with {!io_snapshot}. *)

(** {2 Table write path} *)

module Table : sig
  val insert : Heap_file.t -> Tuple.t list -> Page.rid list
  (** Append rows to a table's heap file in order, returning their rids
      (page IO charged through the pool; checksums maintained
      incrementally).  The storage layer only appends — keeping statistics,
      indexes and the catalog epoch in step is {!Catalog.insert}'s job, so
      callers should go through the catalog unless they are loading raw
      data. *)
end

(** {2 Fault injection}

    Installing a {!Fault.t} plan makes matching buffer-pool operations (heap,
    index and temp pages alike) raise typed {!Avq_error} errors, and turns
    page-checksum verification on so injected silent corruption is caught at
    fetch time. *)
module Faults : sig
  val install : t -> Fault.t -> unit
  val clear : t -> unit
  val plan : t -> Fault.t option
  val stats : t -> Buffer_pool.fault_stats
  val reset_stats : t -> unit
end
