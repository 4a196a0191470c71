(** SQL data types supported by the engine.

    The paper's query class (Section 2) assumes no NULLs, so every column is
    implicitly NOT NULL and there is no nullability flag. *)

type t =
  | Int     (** 64-bit signed integer *)
  | Float   (** double-precision float *)
  | String  (** variable-length character string *)
  | Bool    (** boolean *)
  | Date    (** date, stored as days since epoch *)

val equal : t -> t -> bool

val to_string : t -> string
val pp : Format.formatter -> t -> unit

val byte_width : t -> int
(** [byte_width t] is the width in bytes used by the storage layer and the
    cost model for a column of type [t].  Strings are budgeted at a fixed
    average width. *)
