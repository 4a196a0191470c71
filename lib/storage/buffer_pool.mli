(** LRU buffer pool with physical-IO accounting.

    Every page access in the engine goes through a pool.  The pool does not
    hold page contents (those live in the heap files); it tracks *residency*:
    which (file, page) frames are cached, which are dirty, and how many
    physical reads and writes have occurred.  A miss on {!read} counts a
    physical read; evicting a dirty frame, or {!flush_all}, counts a physical
    write per dirty page.

    The pool is domain-safe: the LRU structure is protected by a mutex, the
    global counters are atomics, and every counted event is additionally
    tallied into a per-domain accumulator ({!local_stats}).  A worker domain
    executes one query at a time, so the growth of its own tally over a
    window is exactly the IO that query incurred — measurement by
    snapshot-and-subtract ({!diff}) instead of resetting shared counters,
    which would clobber concurrent measurements. *)

type t

type stats = {
  reads : int;    (** physical page reads (misses) *)
  writes : int;   (** physical page writes (dirty evictions + flushes) *)
  hits : int;     (** accesses served from the pool *)
}

val create : frames:int -> t
(** [create ~frames] makes a pool holding at most [frames] pages.
    @raise Invalid_argument if [frames < 1]. *)

val read : t -> file:int -> page:int -> unit
(** Access an existing page for reading; loads it (counting a physical read)
    if absent.
    @raise Avq_error.Error if the installed fault plan fails this access (a
    faulted op counts no IO and leaves no frame behind). *)

val read_retrying : t -> file:int -> page:int -> unit
(** Like {!read}, but transient {!Avq_error.Io_fault}s are retried with
    exponential backoff up to the installed plan's [Fault.retries] budget.
    Exhausting the budget re-raises with [attempts] set to the total number
    of tries; [Corruption] is permanent and never retried.  Without a plan
    this is exactly {!read}.  When the plan sets [jitter], each wait is
    scaled by a seeded, reproducible per-(page, domain, attempt) factor so
    workers retrying the same hot page don't spin in lockstep. *)

val backoff_spins : ?jitter:float -> seed:int -> salt:int -> int -> int
(** [backoff_spins ?jitter ~seed ~salt attempt] — the exact spin count
    {!read_retrying} waits on its [attempt]-th retry (base [2^min attempt 10],
    scaled by a factor in [1-jitter, 1+jitter) drawn from
    {!Fault.hash_unit}[ seed salt attempt]).  Pure; exposed so tests can
    assert reproducibility and spread. *)

val write : t -> file:int -> page:int -> unit
(** Access an existing page for writing: like {!read} but marks the frame
    dirty. *)

val alloc : t -> file:int -> page:int -> unit
(** Register a freshly-allocated page: resident and dirty, no read counted. *)

val drop_file : t -> file:int -> unit
(** Discard all frames of [file] without writing them back (temp-file
    deletion). *)

val flush_all : t -> unit
(** Write back every dirty frame (each counts one physical write). *)

val clear : t -> unit
(** Empty the pool without counting any IO (simulates a cold cache before a
    measured run). *)

val stats : t -> stats
(** Global (cross-domain) cumulative counters. *)

val reset_stats : t -> unit
(** Zero the global counters.  Only meaningful on a quiescent,
    single-threaded pool (cold benchmark runs); per-domain tallies are
    monotonic and unaffected. *)

val local_stats : unit -> stats
(** Cumulative counters for IO charged by the {e calling domain} (across
    all pools; a domain drives one storage instance at a time).  Monotonic:
    never reset.  Measure a window with [diff (local_stats ()) before]. *)

val diff : stats -> stats -> stats
(** [diff now before] — componentwise subtraction. *)

val resident : t -> file:int -> page:int -> bool
val pp_stats : Format.formatter -> stats -> unit

(** {2 Fault injection}

    A {!Fault.t} plan installed on the pool makes matching operations raise
    typed {!Avq_error} errors at the exact layer where IO is counted. *)

val set_faults : t -> Fault.t option -> unit
(** Install (or with [None] remove) the fault plan.  Swap only between
    runs; the per-op decision state lives inside the plan itself. *)

val faults : t -> Fault.t option

type fault_stats = {
  injected : int;  (** typed faults raised (IO failures and corruptions) *)
  retried : int;  (** individual retry attempts spent *)
  recovered : int;  (** reads that succeeded after >= 1 retry *)
  exhausted : int;  (** reads that still failed after the retry budget *)
}

val fault_stats : t -> fault_stats
val reset_fault_stats : t -> unit
