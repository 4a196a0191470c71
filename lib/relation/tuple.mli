(** Tuples: fixed-arity arrays of values. *)

type t = Value.t array

val make : Value.t list -> t
val arity : t -> int
val get : t -> int -> Value.t
val concat : t -> t -> t
val project : t -> int list -> t
val project_arr : t -> int array -> t

val compare_at : int array -> t -> t -> int
(** [compare_at cols a b] compares lexicographically on positions [cols]. *)

val compare : t -> t -> int
(** Full lexicographic comparison (both tuples must have equal arity). *)

val equal : t -> t -> bool
val hash_at : int array -> t -> int
val to_string : t -> string
