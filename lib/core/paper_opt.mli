(** The paper's optimization algorithm for queries with aggregate views
    (Sections 5.3–5.4).

    For each view Q_i = G_i(V_i):
    + compute the minimal invariant set V_i'; the relations V_i - V_i' join
      the augmented outer set B' = B ∪ ⋃(V_i - V_i');
    + for every candidate pull-up set W ⊆ B' (restricted by the k-level
      pull-up bound and the shared-predicate requirement of Section 5.3),
      optimize the pulled-up single block Φ(V_i', W): joins over V_i' ∪ W
      with G_i' on top, whose grouping columns are extended with the keys
      (and outward-visible columns) of the W relations and whose Having
      clause absorbs the deferred predicates on aggregated columns
      (Definition 1);
    + in the second phase, enumerate consistent (disjoint) choices of W_i,
      joining the pulled-up views with the remaining B' relations, placing
      the outer group-by G_0 with the greedy conservative heuristic.

    The candidate W_i = V_i - V_i' is the view itself, planned exactly as
    {!Baseline}'s greedy mode plans it, and the combination choosing it for
    every view is evaluated first and kept on ties: that combination's
    phase 2 is the greedy search, so the chosen plan's estimated cost never
    exceeds {!Baseline}'s [`Greedy] plan's; {!Baseline} says how far the
    greedy search contains the traditional one.  This is the sense of the
    paper's guarantee: relative to the cost model, not to measured IO. *)

type options = {
  k_pullup : int;  (** max relations pulled through a view beyond V - V' *)
  require_shared_pred : bool;
      (** only pull a relation sharing a predicate with the view *)
  max_w_sets : int;  (** cap on candidate W sets per view *)
  max_combos : int;  (** cap on phase-2 (W_1..W_m) combinations *)
  bushy : bool;  (** enumerate bushy join trees too (extension; default off) *)
}

val default_options : options

type pulled = {
  p_view : string;  (** view alias *)
  p_w : (string * string) list;  (** the pulled set W (alias, table) *)
  p_entry : Dp.entry;  (** optimized Φ(V', W); for W = V - V', the view itself *)
}

type report = {
  best : Dp.entry;
  chosen_w : (string * (string * string) list) list;
      (** per view: the W of the winning combination *)
  pulled_plans : pulled list;  (** all Φ(V', W) optimized in phase 1 *)
  minimal_sets : (string * string list) list;
      (** per view: aliases of the minimal invariant set *)
  combos_tried : int;
}

val optimize :
  Catalog.t -> work_mem:int -> opts:options -> Normalize.nquery -> report
(** @raise Invalid_argument on malformed input (unknown aliases etc.). *)
