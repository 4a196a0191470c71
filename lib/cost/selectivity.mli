(** Selectivity estimation.

    An estimation environment maps columns to statistics.  Base-table
    columns (qualified by a FROM alias) resolve to catalog statistics;
    derived columns — view aggregate outputs, for instance — have no
    statistics and fall back to the System R default guesses (1/10 for
    equality, 1/3 for ranges), which is also what the paper's setting
    implies: predicates over aggregated columns are hard to estimate. *)

type env

val of_aliases : Catalog.t -> (string * string) list -> env
(** [of_aliases cat aliases] builds an environment where column qualifier
    [alias] resolves into table [table] for each [(alias, table)] pair. *)

val ndv : env -> Schema.column -> rows:float -> float
(** Estimated distinct count of a column, capped by [rows]; defaults to
    [rows / 10] when unknown. *)

val preds : env -> Expr.pred list -> float

val default_range : float
