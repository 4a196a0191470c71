(** Dynamic-programming join enumeration (the [Enumerate] algorithm of
    Section 5.1, after [SAC+79]) over linear join trees, extended with the
    {e greedy conservative heuristic} of Section 5.2: at every subset the
    optimizer may place the block's group-by early — either finally
    (invariant grouping) or as a partial aggregate (simple coalescing) — and
    keeps the early-grouped plan only when it is no more expensive and no
    wider than the plain join plan, which preserves the paper's
    never-worse-than-traditional guarantee.

    Items are either base relations or {e derived} relations (materialized
    views, pulled-up views); predicates are attached at the lowest subset
    that covers their aliases.  Access paths (sequential and index scans),
    join methods (block nested loops, index nested loops, hash, sort-merge)
    and orderings (a light interesting-orders Pareto set per subset) are
    enumerated; costs come from {!Cost_model}. *)

type access =
  | A_base of { alias : string; table : string }
  | A_derived of {
      plan : Physical.t;
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

val optimize : Catalog.t -> work_mem:int -> input -> entry
(** Best finalized plan for the whole block: the group-by (if any) is
    guaranteed applied — early, partially+combined, or on top.
    @raise Invalid_argument on an empty item list. *)
