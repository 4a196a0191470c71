(** Dynamic-programming join enumeration (the [Enumerate] algorithm of
    Section 5.1, after [SAC+79]) over linear join trees, extended with the
    {e greedy conservative heuristic} of Section 5.2: at every subset the
    optimizer may place the block's group-by early — either finally
    (invariant grouping) or as a partial aggregate (simple coalescing) —
    when the early-grouped plan is no more expensive, no wider and smaller
    than the plain join plan.  The early-grouped plan is added beside the
    plain one, never in its place, so the table with early grouping holds
    every plan the table without it holds.

    Items are either base relations or {e derived} relations (materialized
    views, pulled-up views); predicates are attached at the lowest subset
    that covers their aliases.  Access paths (sequential and index scans),
    join methods (block nested loops, index nested loops, hash, sort-merge)
    and orderings are enumerated; costs come from {!Cost_model}.  Each
    subset keeps a Pareto set of at most 8 entries: an entry is pruned only
    by one with the same grouping state that is no larger in cost and pages
    and at least as well ordered.  Rows are not compared there, since the
    cost model estimates a join's rows differently per join method; they
    are among a block's finals (see {!optimize}). *)

type access =
  | A_base of { alias : string; table : string }
  | A_derived of {
      plans : Physical.t list;
          (** the derived relation's access paths: alternative plans for
              it, typically the {!optimize} result of its block *)
      out_key : Schema.column list option;
          (** a key of the derived output (its grouping columns), used by
              the invariant-grouping legality check *)
    }

type item = { covers : string list; access : access }

type input = {
  items : item list;
  preds : Expr.pred list;
      (** every conjunct the block must apply (single-item conjuncts become
          scan filters) *)
  group : Grouping.group_spec option;  (** the block's group-by, if any *)
  early_grouping : bool;  (** enable the greedy conservative heuristic *)
  bushy : bool;
      (** also enumerate bushy join trees (composite inner sides).  The
          paper's space is linear join orders (Section 5.1, after
          [SAC+79]); this is the natural extension, kept off by default. *)
}

type gtag =
  | Ungrouped
  | Grouped_final
  | Grouped_partial of Grouping.coalesce

type entry = { plan : Physical.t; est : Cost_model.est; tag : gtag }

val optimize : Catalog.t -> work_mem:int -> input -> entry list
(** The block's finalized plans (the group-by, if any, applied — early,
    partially+combined, or on top) that no other final dominates, cheapest
    first with ties broken on rows; at most 2.  The head is the block's
    plan.  Exporting the rest as a derived item's access paths lets the
    enclosing block pick a final that costs a little more but yields fewer
    rows or pages.
    @raise Invalid_argument on an empty item list. *)

val derived : covers:string list -> out_key:Schema.column list -> entry list -> item
(** The derived item of a block that covers [covers], whose output has key
    [out_key] and whose access paths are the plans of [finals]. *)
