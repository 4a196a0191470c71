(** Batch iterators: the executor's operator protocol.

    A volcano-style pull iterator that moves a {!Batch.t} per call instead
    of a tuple, so per-row closure dispatch and [Seq]/[option] allocation
    disappear from inner loops. *)

type t = {
  schema : Schema.t;
  next_batch : unit -> Batch.t option;
  close : unit -> unit;
}

val once : (unit -> unit) -> unit -> unit
(** Make a close function idempotent (second and later calls are no-ops). *)

val of_rows : Schema.t -> Tuple.t array -> t
(** Serve an array as batches of {!Batch.default_rows}. *)

val of_seq : Schema.t -> Tuple.t Seq.t -> t
(** Serve a sequence as batches of {!Batch.default_rows}, forcing only the
    elements each batch needs. *)

val iter : (Batch.t -> unit) -> t -> unit
(** Drain batch-at-a-time and close; the source is closed (once) even when
    the callback or a producer raises. *)

val iter_rows : (Tuple.t -> unit) -> t -> unit
(** Drain row-at-a-time (over live rows) and close; exception-safe like
    {!iter}. *)

val to_list : t -> Tuple.t list
val to_relation : t -> Relation.t
