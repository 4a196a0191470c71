(** Schemas: ordered lists of typed, qualified columns.

    A column is identified by an optional table qualifier and a name.
    Operator outputs keep qualifiers so that the optimizer can trace a column
    back to its base relation (needed by the pull-up transformation, which
    must locate key columns of a joined relation). *)

type column = {
  cqual : string;  (** table or view alias this column comes from *)
  cname : string;  (** column name within the qualifier *)
  cty : Datatype.t;
}

type t

val column : ?qual:string -> string -> Datatype.t -> column
(** [column ~qual name ty] builds a column; [qual] defaults to ["" ]. *)

val of_columns : column list -> t
val columns : t -> column list
val arity : t -> int
val get : t -> int -> column

val append : t -> t -> t
(** [append a b] is the schema of the concatenation of tuples of [a] and
    [b] (join output). *)

val project : t -> int list -> t
(** [project s idxs] keeps columns at positions [idxs], in that order. *)

val find : t -> ?qual:string -> string -> int option
(** [find s ~qual name] resolves a column reference.  Without [qual], the
    name must be unambiguous; {!Ambiguous} is raised if two columns match. *)

exception Ambiguous of string

val find_exn : t -> ?qual:string -> string -> int
(** Like {!find} but raises [Not_found]. *)

val index_of_column : t -> column -> int option
(** Position of an exactly-matching (qualifier, name) column. *)

val mem : t -> column -> bool

val byte_width : t -> int
(** Total row width in bytes, as used by the storage layer and cost model. *)

val rename_qualifier : t -> string -> t
(** [rename_qualifier s q] re-qualifies every column with [q] (view
    materialization: the view's output columns belong to the view alias). *)

val column_equal : column -> column -> bool
val pp : Format.formatter -> t -> unit
val column_to_string : column -> string
