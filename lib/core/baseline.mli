(** The traditional two-phase optimizer (paper, Section 5.1) and its greedy
    conservative refinement (Section 5.2).

    Phase 1 optimizes each aggregate view locally over its own relations and
    predicates; phase 2 joins the materialized views (treated as base
    relations) with the outer tables.  [`Traditional] places each group-by
    at the top of its block; [`Greedy] additionally lets {!Dp} place
    group-bys early inside each block (push-down only — no cross-block
    reordering, which is what the pull-up algorithm in {!Paper_opt} adds).

    [`Greedy]'s searches contain [`Traditional]'s, so its plan's estimated
    cost is never higher: {!Dp} adds early-grouped plans beside the plain
    ones, so each view's table holds the traditional view plans, and a view
    exports its non-dominated finals (cost, rows, pages, order), so the
    outer block is not handed only a cheaper view plan with more rows.  The
    containment is not exact: {!Dp} caps each subset at 8 entries and a
    view's export at 2 finals, and prunes entries without comparing rows.
    The oracle's E6 leg and [bench E6] check the ordering on generated
    queries. *)

val optimize :
  Catalog.t ->
  work_mem:int ->
  mode:[ `Traditional | `Greedy ] ->
  ?bushy:bool ->
  Normalize.nquery ->
  Dp.entry
(** Best plan for the whole query, {e without} the final projection (the
    caller appends it; see {!Optimizer}). *)

val view_item :
  Catalog.t -> work_mem:int -> early:bool -> bushy:bool -> Normalize.nview ->
  Dp.entry * Dp.item
(** Phase 1 for one view: its best plan, and the derived item the outer
    block joins, whose access paths are the view's exported finals. *)

val base_item : string * string -> Dp.item
(** The item of an (alias, table) base relation. *)

val top_spec : Normalize.nquery -> Grouping.group_spec
(** The outer block's group-by. *)
