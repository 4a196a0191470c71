(** Row batches with selection vectors (MonetDB/X100-style vectorized
    execution unit).

    A batch is a filled prefix of an array of tuples plus an optional
    selection vector: an increasing array of indices of the rows that are
    still live.  Filters refine the selection vector instead of copying
    survivors, so a scan→filter→… pipeline touches each tuple array once.
    Batches are immutable from the consumer's point of view; [select] and
    [take] share the underlying row array.

    Ownership (X100 rule): a producer may reuse the underlying row array
    between batches, so a batch is only valid until the producer's next
    [next_batch] call.  Consumers must drain each batch before pulling the
    next, or copy rows out ([to_rows]/[to_list]); the tuples themselves are
    never overwritten and may be retained freely. *)

type t

val default_rows : int
(** Target rows per batch (1024). Operators may emit larger or smaller
    batches; the protocol does not require exact sizing. *)

val of_rows : Schema.t -> Tuple.t array -> t
(** Batch over the whole array, all rows live.  The array is owned by the
    batch afterwards. *)

val of_sub : Schema.t -> Tuple.t array -> int -> t
(** [of_sub schema rows n]: batch over the first [n] rows.
    @raise Invalid_argument if [n] is out of range. *)

val of_segment : Schema.t -> Tuple.t array -> lo:int -> len:int -> t
(** Zero-copy batch over [rows.(lo) .. rows.(lo+len-1)] of a shared,
    read-only array — e.g. a heap file's backing store.  No allocation
    proportional to [len].
    @raise Invalid_argument if the segment is out of range. *)

val of_list : Schema.t -> Tuple.t list -> t

val live : t -> int
(** Number of live rows (selection vector length, or the full prefix). *)

val is_empty : t -> bool

val iter : (Tuple.t -> unit) -> t -> unit
(** Apply to every live row in batch order. *)

val fold : ('a -> Tuple.t -> 'a) -> 'a -> t -> 'a

val select : (Tuple.t -> bool) -> t -> t
(** Refine the selection vector to rows satisfying the predicate; no row is
    copied. *)

val select_int_cmp : op:Expr.cmp -> idx:int -> int -> t -> t
(** [select_int_cmp ~op ~idx k t]: specialized selection kernel for the
    post-pushdown shape [col <cmp> int-const] — a monomorphic loop over the
    batch with no per-row closure dispatch or polymorphic compare.
    Non-[Int] cell values fall back to {!Expr.eval_cmp}, so semantics match
    [select (Expr.compile_pred _ (Cmp (op, Col _, Const (Int k))))]. *)

val map : Schema.t -> (Tuple.t -> Tuple.t) -> t -> t
(** Compacting map over live rows (projection). *)

val take : int -> t -> t
(** Keep only the first [n] live rows. *)

val to_rows : t -> Tuple.t array
(** Compacted live rows. *)

val to_list : t -> Tuple.t list
