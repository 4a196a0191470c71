(** Physical plans: the executable operator trees the optimizer emits.

    A physical plan fixes access paths (sequential vs index scan), join
    algorithms, sort placement and aggregation strategy.  The executor
    [Executor.run] evaluates any well-formed plan and reports measured page
    IO; the cost model [Cost_model] predicts that same IO from statistics.

    Planner-enforced invariants (the executor trusts them; the equivalence
    tests check end results):
    - [Merge_join] and [Sort_group] inputs must be sorted on the join /
      grouping columns (insert [Sort] nodes);
    - the inner (right) input of [Block_nl_join] and the target of
      [Index_nl_join] must be rescannable: a scan or a [Materialize]. *)

type bound = Value.t * bool  (** endpoint value, inclusive? *)

type t =
  | Seq_scan of { alias : string; table : string; filter : Expr.pred list }
  | Index_scan of {
      alias : string;
      table : string;
      column : string;  (** indexed column (unqualified name) *)
      lo : bound option;
      hi : bound option;
      filter : Expr.pred list;  (** residual, applied after the fetch *)
    }
  | Filter of { input : t; pred : Expr.pred list }
  | Block_nl_join of { left : t; right : t; cond : Expr.pred list }
  | Index_nl_join of {
      left : t;
      alias : string;
      table : string;
      column : string;  (** indexed column of the inner table *)
      outer_key : Schema.column;  (** column of [left] providing probe keys *)
      cond : Expr.pred list;  (** residual join predicates *)
    }
  | Hash_join of {
      left : t;
      right : t;
      keys : (Schema.column * Schema.column) list;  (** left col = right col *)
      cond : Expr.pred list;  (** residual non-equi conjuncts *)
      build_side : [ `Left | `Right ];
    }
  | Merge_join of {
      left : t;
      right : t;
      keys : (Schema.column * Schema.column) list;
      cond : Expr.pred list;
    }
  | Sort of { input : t; cols : Schema.column list; desc : bool list }
      (** [desc] is parallel to [cols]; [[]] means all ascending *)
  | Hash_group of group
  | Sort_group of group  (** input must be sorted on [keys] *)
  | Project of { input : t; cols : (Expr.t * Schema.column) list }
  | Materialize of { input : t }
      (** spool the input to a temp file, then stream it (rescannable) *)
  | Limit of { input : t; count : int }
      (** emit at most [count] rows, then stop pulling *)

and group = {
  input : t;
  agg_qual : string;
  keys : Schema.column list;
  aggs : Aggregate.t list;
  having : Expr.pred list;
}

val schema : Catalog.t -> t -> Schema.t
(** Output schema (needs the catalog to resolve scans). *)

val sorted_on : t -> (string * string) list
(** (qualifier, name) of columns the plan's output is provably sorted on
    (prefix order): [Sort]/[Merge_join]/[Sort_group]/[Index_scan] outputs,
    and sort order preserved through filters, projects (of retained
    columns) and materialize. *)

val relations : t -> (string * string) list
(** (alias, table) of every scan in the plan. *)

val op_name : t -> string
(** Short operator name ("SeqScan(emp)", "HashJoin", ...): the shared
    vocabulary between profile nodes, trace spans and EXPLAIN ANALYZE. *)

val display_table : string -> string
(** User-facing name of a scanned table: materialized-view extents
    ([__mv_<name>] heaps) render as [mv:<name>], anything else as itself.
    Used by every plan printer so EXPLAIN output attributes IO to the view
    the user created rather than an internal backing table. *)

val inputs : t -> t list
(** Direct child plans, left to right. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
