(** Equi-depth histograms for selectivity estimation.

    Built from the actual column data at load time (the engine plays both
    DBMS and statistics collector), so estimates reflect the synthetic
    workloads' real distributions. *)

type t

val build : ?buckets:int -> Value.t list -> t
(** [build ~buckets vs] sorts [vs] and cuts it into at most [buckets]
    (default 32) equal-frequency buckets.
    @raise Invalid_argument on an empty list. *)

val count : t -> int
val ndv : t -> int
val min_value : t -> Value.t
val max_value : t -> Value.t

val sel_eq : t -> Value.t -> float
(** Estimated fraction of rows equal to the value. *)

val sel_range : t -> ?lo:Value.t * bool -> ?hi:Value.t * bool -> unit -> float
(** Estimated fraction of rows within the range; endpoints carry an
    inclusive flag.  Uses linear interpolation inside numeric buckets. *)
