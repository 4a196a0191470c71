(** Query canonicalization and literal parameterization.

    Turns a bound {!Block.query} into a deterministic {e template} plus a
    {e parameter vector}: every literal constant appearing in a predicate
    (view WHERE/HAVING, outer WHERE/HAVING) becomes a positional parameter,
    and top-level conjuncts are put into a canonical order, so that two
    queries differing only in predicate constants — or in the textual order
    of their conjuncts — share one template.  The template's serialization
    is what the service layer fingerprints for its plan cache.

    Constants outside predicates (aggregate arguments, select expressions,
    LIMIT) are treated as part of the template: changing them changes the
    fingerprint.  Plan templates are only ever re-bound at predicate
    positions, so this split keeps re-binding sound. *)

val serialize : Block.query -> string
(** Canonical template text: conjuncts stably sorted by their
    parameterized serialization, predicate constants rendered as [?]; everything else (aliases, tables, grouping
    columns, aggregates, select list, ORDER BY, LIMIT) rendered literally.
    Deterministic across runs and OCaml versions. *)

val params : Block.query -> Value.t list
(** The query's predicate constants, in canonical (template) order. *)

val substitute : Block.query -> Value.t list -> Block.query
(** [substitute q vals] rewrites the i-th canonical predicate constant of
    [q] to [List.nth vals i] — the inverse of {!params}:
    [substitute q (params q) = q] up to conjunct order.
    @raise Invalid_argument when the vector length differs from
    [List.length (params q)], or when a value's type does not match the
    constant it replaces (an ill-typed plan would otherwise execute and
    return meaningless comparisons instead of failing cleanly). *)
