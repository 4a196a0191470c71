(** The IO cost model (paper, Section 5: "The optimization algorithm ...
    minimizes IO cost").

    [estimate] predicts, for a physical plan, the output cardinality, row
    width, materialized size and cumulative page IO, using the same
    work-memory budget as the executor so spill decisions line up.  The
    model satisfies the principle of optimality: an operator's added cost
    depends only on its inputs' estimates, never on the surrounding plan.

    Formula inventory (M = work_mem pages):
    - SeqScan: heap pages.
    - IndexScan: tree height + matched leaf fraction + heap fetches
      (clustered: matched heap pages; unclustered: one page per matched row,
      capped by the heap size).
    - Block NL join: outer cost + ceil(outer_pages / (M-1)) inner rescans.
    - Index NL join: outer cost + outer rows * (height + 1).
    - Hash join: both input costs, + 2 * (both sides' pages) when the build
      side exceeds M (Grace partitioning).
    - Merge join: input costs (sorting is priced by explicit Sort nodes).
    - Sort: 2 * pages * passes when spilling, else free (in-memory).
    - Hash/Sort group-by: free beyond the input (streaming / in-memory
      table); output rows via the Cardenas distinct-groups formula.
    - Materialize: one write of the input's pages (re-reads are charged by
      the consuming BNL join). *)

type est = {
  rows : float;   (** estimated output cardinality *)
  width : int;    (** output row bytes *)
  pages : float;  (** pages the output would occupy if materialized *)
  cost : float;   (** cumulative page IO to produce the output once *)
}

val estimate : Catalog.t -> work_mem:int -> Physical.t -> est

val cardenas : n:float -> d:float -> float
(** Expected number of distinct values drawn when [n] rows are thrown into
    [d] equally likely groups: [d * (1 - (1 - 1/d)^n)]. *)

val plan_aware_grouping : bool ref
(** When set to [false], {!estimate} falls back to the naive
    product-of-NDVs group count (ablation switch for experiments; default
    [true]). *)

val pp_est : Format.formatter -> est -> unit
