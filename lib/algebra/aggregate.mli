(** Aggregate functions: COUNT star, COUNT, SUM, AVG, MIN, MAX.

    All six are decomposable in the paper's sense (Section 4.2): a group can
    be computed by coalescing sub-groups that agree on the grouping columns.
    {!decompose} produces the partial aggregates for the added lower
    group-by of simple coalescing grouping and the combining aggregates for
    the original (upper) group-by; AVG additionally needs a final projection
    (sum/count), returned as [post]. *)

type func =
  | Count_star
  | Count
  | Sum
  | Avg
  | Min
  | Max
  | Udf of udf_spec
      (** user-defined aggregate (paper, Section 2: "an aggregate function
          can be built-in or user-defined (without side-effects), e.g. ...
          Standard_deviation").  Not decomposable: simple coalescing will
          never be applied to it, but pull-up and invariant grouping carry
          it opaquely. *)

and udf_spec = {
  udf_name : string;
  udf_result : Datatype.t;
  udf_fold : Value.t list -> Value.t;
      (** applied to the group's argument values, in input order *)
}

type t = {
  func : func;
  arg : Expr.t option;  (** [None] only for [Count_star] *)
  out_name : string;    (** name of the produced column *)
}

val make : func -> ?arg:Expr.t -> string -> t
(** @raise Invalid_argument when [arg]'s presence contradicts [func]
    (UDFs require an argument). *)

val stddev : arg:Expr.t -> string -> t
(** Population standard deviation as a {!Udf} — the paper's own example of
    a user-defined aggregate. *)

val result_type : t -> Datatype.t
val arg_columns : t -> Schema.column list
val is_decomposable : t -> bool

type decomposed = {
  partials : t list;
  (** aggregates to run in the added lower group-by *)
  combine : t list;
  (** aggregates for the upper group-by, reading the partial outputs
      (referenced with qualifier [qual] passed to {!decompose}) *)
  post : (Expr.t * string) option;
  (** optional final expression (AVG): built from the combined outputs *)
}

val decompose : qual:string -> t -> decomposed
(** @raise Invalid_argument on a non-decomposable (UDF) aggregate; guard
    with {!is_decomposable}. *)

(** {1 Runtime} *)

type state

val init : func -> state
val step : state -> Value.t option -> state
(** Fold one row in; the value is [None] exactly for [Count_star]. *)

val merge : state -> state -> state
(** Combine the states of two sub-groups (decomposability witness). *)

val count_state : int -> state
(** The state a COUNT reaches after absorbing that many rows. *)

val sum_state : Value.t -> state
(** The state a SUM reaches after absorbing one or more rows totalling the
    given value.  With {!count_state}, lets an executor that accumulates
    int-typed COUNT/SUM groups in unboxed form rebuild the equivalent
    generic state when it must fall back. *)

val finish : state -> Value.t
(** @raise Invalid_argument on a state that absorbed no rows — SQL would
    return NULL, which the engine does not model; group-by never produces
    empty groups. *)

val to_string : t -> string
