(** Heap files: unordered paged storage of tuples.

    A heap file owns a file id within a {!Buffer_pool} and stores tuples in
    fixed-capacity pages (capacity derived from the schema's byte width).
    Every page touched by {!append}, {!get} or the scanning functions is
    routed through the pool, so scans of a table cost [npages] physical reads
    when cold and zero when resident.

    Robustness: every page carries a content checksum, maintained
    incrementally on {!append} and verified on fetch when the shared
    [verify] switch is on (see {!Storage.Faults.install}); a mismatch — e.g.
    after {!corrupt} — raises a typed {!Avq_error.Corruption} instead of
    silently returning damaged rows.  Page reads go through
    {!Buffer_pool.read_retrying}, so transient injected faults are retried
    within the installed plan's budget. *)

type t

val create :
  pool:Buffer_pool.t -> file_id:int -> ?verify:bool Atomic.t -> Schema.t -> t
(** [create ~pool ~file_id ~verify schema]: [verify] is the
    checksum-verification switch, usually shared across all heaps of one
    [Storage.t]; defaults to a private always-off switch. *)

val file_id : t -> int
val page_capacity : t -> int

val append : t -> Tuple.t -> Page.rid
val append_all : t -> Tuple.t list -> unit

val nrows : t -> int
val npages : t -> int

val page_checksums : t -> int array
(** Snapshot of the incrementally maintained per-page content checksums,
    one per existing page.  Durable checkpoints store these; recovery
    recomputes checksums over the reloaded rows and compares. *)

val get : t -> Page.rid -> Tuple.t
(** Fetch one tuple by rid (one page access).
    @raise Avq_error.Error ([Corruption]) on an out-of-range rid — a
    dangling reference is structural damage, not a usage error. *)

val corrupt : t -> Page.rid -> unit
(** Silently damage the stored row without updating the page checksum
    (simulates media corruption; the next verified fetch of that page raises
    [Corruption]).
    @raise Invalid_argument on an out-of-range rid. *)

val set_page_hook : t -> (int -> unit) option -> unit
(** Hook invoked with the page index just before each fresh page is
    allocated; the executor uses it on temp heaps to enforce spill quotas.
    An exception from the hook aborts the append with no state change. *)

val scan : t -> (Page.rid -> Tuple.t -> unit) -> unit
(** Full scan in storage order, accessing each page once. *)

val to_seq : t -> Tuple.t Seq.t
(** Lazy full scan; page accesses are charged as the sequence is consumed. *)

val scan_segment : t -> page:int -> npages:int -> Tuple.t array * int * int
(** [scan_segment t ~page ~npages] charges the pool one read per existing
    page in [page .. page+npages-1] and returns [(rows, lo, len)]: a view of
    the backing row array covering those pages ([len] = 0 past the end of
    the file).  Zero-copy — callers must treat [rows] as read-only and must
    not retain it across appends.  This is the batch executor's scan
    primitive: one pool touch per page and no per-tuple copying at all. *)

val to_relation : t -> Relation.t

val drop : t -> unit
(** Discard the file's frames from the pool without write-back (used for
    temporaries). *)
