(** Scalar expressions and predicates over tuples.

    Columns are referenced symbolically by (qualifier, name); {!compile}
    resolves them against a concrete runtime schema, so the same predicate
    can be evaluated at different points of a plan as long as the needed
    columns are in scope.  This is what lets the optimizer move predicates
    between joins and Having clauses (pull-up defers join predicates on
    aggregated columns into the Having clause of the pulled-up group-by). *)

type t =
  | Col of Schema.column
  | Const of Value.t
  | Binop of binop * t * t

and binop = Add | Sub | Mul | Div

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type pred =
  | Cmp of cmp * t * t
  | And of pred * pred
  | Or of pred * pred
  | Not of pred

val col : ?qual:string -> string -> Datatype.t -> t
val int : int -> t
val flt : float -> t

(** {1 Static analysis} *)

val columns : t -> Schema.column list
val pred_columns : pred -> Schema.column list
val qualifiers : pred -> string list
(** Distinct table/view aliases a predicate mentions. *)

val conjuncts : pred -> pred list
(** Split top-level [And]s. *)

val conjoin : pred list -> pred option

val as_equijoin : pred -> (Schema.column * Schema.column) option
(** [Some (a, b)] when the predicate is [Cmp (Eq, Col a, Col b)] with
    different qualifiers. *)

val type_of : t -> Datatype.t

val subst_columns : (Schema.column -> Schema.column option) -> pred -> pred
(** Rewrite column references; [None] keeps the original. *)

val subst_expr_columns : (Schema.column -> Schema.column option) -> t -> t

(** {1 Evaluation} *)

exception Unresolved_column of string

val resolve_column : Schema.t -> Schema.column -> int
(** Position of a column in a runtime schema: exact (qualifier, name) match
    first, then qualified-name lookup.
    @raise Unresolved_column if absent. *)

val compile : Schema.t -> t -> Tuple.t -> Value.t
(** [compile schema e] resolves all columns of [e] in [schema] (raising
    {!Unresolved_column} immediately if one is absent) and returns an
    evaluator. *)

val compile_pred : Schema.t -> pred -> Tuple.t -> bool

val eval_cmp : cmp -> Value.t -> Value.t -> bool

(** {1 Printing} *)

val pp : Format.formatter -> t -> unit
val pp_pred : Format.formatter -> pred -> unit
val to_string : t -> string
val pred_to_string : pred -> string
