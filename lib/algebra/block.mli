(** The canonical multi-block query form of the paper (Figure 3):

    a join among base tables [B1..Bn] and aggregate views [Q1..Qm], each
    view being a single-block SPJ query with GROUP BY (and possibly HAVING),
    the whole optionally topped by a further GROUP BY [G0] and HAVING.

    This is the optimizer's input.  The binder lowers parsed SQL to it;
    workload generators construct it directly. *)

type rel = { r_alias : string; r_table : string }

type out_item =
  | Out_key of Schema.column * string
      (** an underlying grouping column exported under a new name *)
  | Out_agg of Aggregate.t  (** exported under its [out_name] *)

type view = {
  v_alias : string;  (** alias of the view in the outer FROM clause *)
  v_rels : rel list;  (** relations of the view's SPJ part, V_i *)
  v_preds : Expr.pred list;  (** conjuncts of the view's WHERE clause *)
  v_keys : Schema.column list;  (** grouping columns g_i (underlying columns) *)
  v_aggs : Aggregate.t list;
  v_having : Expr.pred list;
  v_out : out_item list;  (** exported columns, in order *)
}

type select_item =
  | Sel_col of Schema.column * string  (** column and its output name *)
  | Sel_agg of Aggregate.t

type query = {
  q_views : view list;
  q_rels : rel list;  (** base tables B of the outer block *)
  q_preds : Expr.pred list;  (** outer WHERE conjuncts *)
  q_grouped : bool;  (** whether the outer block has G0 *)
  q_keys : Schema.column list;  (** outer grouping columns (over view outputs
                                    and base columns) *)
  q_aggs : Aggregate.t list;
  q_having : Expr.pred list;
  q_select : select_item list;
  q_order : (string * bool) list;
      (** output columns to sort the result by; the flag is true for
          descending order *)
  q_limit : int option;  (** maximum number of result rows *)
}

val view_schema : view -> Schema.t
(** Output schema of the view, qualified by [v_alias]. *)

val export_mapping : view -> (Schema.column * Schema.column) list
(** Pairs (exported column, underlying column) for the [Out_key] exports —
    the substitution pull-up uses to translate outer predicates on the
    view's grouping columns into predicates on base columns. *)

val exported_agg_columns : view -> Schema.column list
(** The view-output columns that carry aggregate results ("aggregated
    columns of G1" in Definition 1). *)

val view_logical : Catalog.t -> view -> Logical.t
(** Canonical operator tree of a view: left-deep joins of its relations in
    textual order, filter, group-by, projection renaming to the alias. *)

val query_logical : Catalog.t -> query -> Logical.t
(** Canonical operator tree of the whole query (views materialized in
    place), {e without} ORDER BY/LIMIT; the reference plan whose
    {!Logical.eval} defines the query's bag semantics. *)

val reference_eval : Catalog.t -> query -> Relation.t
(** {!Logical.eval} of {!query_logical}, then ORDER BY and LIMIT applied at
    the relation level: the full reference semantics. *)

val validate : Catalog.t -> query -> (unit, string) result
(** Structural checks: distinct aliases, known tables, select list within
    grouping columns when grouped, view exports well-formed. *)

val pp : Format.formatter -> query -> unit
(** SQL-ish rendering for debugging. *)
