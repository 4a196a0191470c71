(** Page geometry and record identifiers.

    The storage engine is page-based: the buffer pool, the heap files and the
    B+-trees all account IO in whole pages of {!size} bytes.  Tuple contents
    are kept in memory (the engine simulates a disk), but every page touch is
    routed through the buffer pool so that physical reads and writes are
    faithfully counted — the paper's cost model is IO-only (Section 5), so
    measured page IO is the quantity experiments compare against. *)

val size : int
(** Page size in bytes (4096). *)

val capacity : row_bytes:int -> int
(** [capacity ~row_bytes] is the number of tuples of width [row_bytes] that
    fit in one page (at least 1). *)

val pages_for : rows:int -> row_bytes:int -> int
(** Number of pages needed to store [rows] tuples. *)

type rid = { page : int; slot : int }
(** Record identifier within a heap file. *)

val compare_rid : rid -> rid -> int
