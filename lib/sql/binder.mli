(** The binder: resolves a parsed script against a catalog and lowers it to
    the canonical multi-block form {!Block.query} (Figure 3).

    Handled here:
    - name resolution (qualified and bare columns, ambiguity detection);
    - CREATE VIEW registration; aggregate views referenced in FROM become
      {!Block.view}s, with their internal aliases renamed
      ["<outer alias>_<inner alias>"] so aliases stay globally unique;
    - SPJ views (no GROUP BY) are {e inlined} into the referencing block —
      the traditional flattening the paper contrasts against;
    - HAVING aggregate references are matched to select-list aggregates (or
      added as hidden aggregates);
    - correlated scalar aggregate subqueries in WHERE are flattened à la
      Kim [Kim82] into a join with a synthesized aggregate view grouped on
      the correlation columns (COUNT subqueries are rejected: the classic
      count bug makes the plain join transformation unsound for them). *)

exception Bind_error of string

val bind_sql : Catalog.t -> string -> Block.query
(** Parse and bind a script given as text. *)

val bind_insert :
  Catalog.t -> table:string -> Sql_ast.sexpr list list -> Tuple.t list
(** Type-check the literal VALUES rows of an INSERT against the table's
    visible columns (the hidden [_rid] key, when present, is assigned by
    {!Catalog.insert}).  Integer literals are coerced into Float columns.
    @raise Bind_error on an unknown table, wrong arity or a type clash. *)

val bind_matview_body : Catalog.t -> name:string -> Sql_ast.select -> Block.view
(** Bind the defining query of [CREATE MATERIALIZED VIEW name AS ...] as a
    {!Block.view} whose alias is the view's name.  The body must be a
    single-block aggregate query (GROUP BY required; DISTINCT, HAVING,
    ORDER BY and LIMIT rejected) whose aggregates are all decomposable.
    @raise Bind_error otherwise. *)
