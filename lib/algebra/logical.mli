(** Logical operator trees.

    This is the representation the paper's transformations (Sections 3–4)
    rewrite: joins and group-by operators with annotations.  Projection is
    not a standalone reordering concern (paper, Section 2: each operator has
    an associated projection list); here an explicit [Project] node is used
    only at view boundaries (renaming a view's output columns) and at the
    query top.

    A [Group] node does {e not} rename its grouping columns: its output
    keeps their original qualified identities and adds one column per
    aggregate, qualified by [agg_qual].  This invariant is what makes the
    pull-up and push-down rewrites compositional — predicates referring to
    base columns stay valid across a group-by placement change.

    {!eval} gives the tree a direct in-memory semantics, used as ground
    truth by the equivalence tests and independent of the paged execution
    engine. *)

type t =
  | Scan of { alias : string; table : string; schema : Schema.t }
      (** base-table access; [schema] is the table's schema re-qualified by
          [alias] *)
  | Filter of { input : t; pred : Expr.pred }
  | Join of { left : t; right : t; cond : Expr.pred list }
      (** inner join; empty [cond] is a cross product *)
  | Group of {
      input : t;
      agg_qual : string;  (** qualifier given to the aggregate outputs *)
      keys : Schema.column list;
      aggs : Aggregate.t list;
      having : Expr.pred list;
    }
  | Project of { input : t; cols : (Expr.t * Schema.column) list }
      (** computes each expression and labels it with the given column *)

val schema : t -> Schema.t
(** Output schema of the tree (raises [Invalid_argument] on badly formed
    trees, e.g. grouping columns missing from the input). *)

val scan : Catalog.t -> alias:string -> string -> t
(** [scan cat ~alias table] builds a [Scan] with the re-qualified schema.
    @raise Invalid_argument on unknown table. *)

val relations : t -> (string * string) list
(** (alias, table) pairs of all scans in the tree. *)

val eval : Catalog.t -> t -> Relation.t
(** Reference interpreter: evaluates the tree directly over in-memory
    relations, with bag semantics and groups in first-seen order.  A chain
    of joins, with the filter directly above it, is evaluated as one: joins
    hash on equi-join conjuncts and each conjunct applies as soon as its
    columns are bound, so no cross product is built where a join key
    exists.  The result's columns are in {!schema} order.  Not
    IO-accounted; intended for tests. *)

val pp : Format.formatter -> t -> unit
(** Multi-line indented rendering of the tree. *)
