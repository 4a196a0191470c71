(** Column and table statistics. *)

type column_stats = {
  ndv : int;              (** number of distinct values *)
  vmin : Value.t;
  vmax : Value.t;
  histogram : Histogram.t;
}

type table_stats = {
  card : int;                     (** row count *)
  pages : int;                    (** heap pages *)
  row_bytes : int;                (** average row width *)
  columns : column_stats array;   (** aligned with the table schema *)
}

val analyze : Schema.t -> Tuple.t list -> table_stats
(** Full-table analyze pass.
    @raise Invalid_argument on an empty table (workloads never load empty
    base tables; the estimator needs at least one row per column). *)

val pp_table : Format.formatter -> table_stats -> unit
