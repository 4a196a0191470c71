(** The traditional two-phase optimizer (paper, Section 5.1) and its greedy
    conservative refinement (Section 5.2).

    Phase 1 optimizes each aggregate view locally over its own relations and
    predicates; phase 2 joins the materialized views (treated as base
    relations) with the outer tables.  [`Traditional] places each group-by
    at the top of its block; [`Greedy] additionally lets {!Dp} place
    group-bys early inside each block (push-down only — no cross-block
    reordering, which is what the pull-up algorithm in {!Paper_opt} adds). *)

val optimize :
  Catalog.t ->
  work_mem:int ->
  mode:[ `Traditional | `Greedy ] ->
  ?bushy:bool ->
  Normalize.nquery ->
  Dp.entry
(** Best plan for the whole query, {e without} the final projection (the
    caller appends it; see {!Optimizer}). *)
