(** In-memory relations (multisets of tuples with a schema).

    Used as the materialized form of query results and as the reference
    representation in tests; on-disk relations live in [avq.storage]. *)

type t

val create : Schema.t -> Tuple.t list -> t
val schema : t -> Schema.t
val tuples : t -> Tuple.t list
val cardinality : t -> int
val is_empty : t -> bool

val iter : (Tuple.t -> unit) -> t -> unit
val fold : ('a -> Tuple.t -> 'a) -> 'a -> t -> 'a
val filter : (Tuple.t -> bool) -> t -> t
val map_tuples : Schema.t -> (Tuple.t -> Tuple.t) -> t -> t
val sort_by : int array -> t -> t

val multiset_equal : t -> t -> bool
(** Bag equality of the tuple contents (schemas are not compared: plans that
    compute the same result may label columns differently). *)

val pp : Format.formatter -> t -> unit
(** Render as an aligned ASCII table with a header row. *)
