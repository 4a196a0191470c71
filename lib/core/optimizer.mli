(** Facade: cost-based optimization of queries with aggregate views.

    Three algorithms are offered, in increasing search-space order:

    - [Traditional] — the two-phase block-at-a-time optimizer of
      Section 5.1 (each view optimized locally, group-bys fixed at block
      tops);
    - [Greedy_conservative] — Traditional plus the greedy conservative
      heuristic of Section 5.2 (cost-based push-down of group-bys within
      each block);
    - [Paper] — the full algorithm of Sections 5.3–5.4: pull-up
      transformation over the minimal invariant sets, enumeration of the
      pulled sets W_i, combined with the push-down heuristic.

    The produced plan is executable with {!Executor.run}.  Estimated costs
    are ordered [Paper] <= [Greedy_conservative] <= [Traditional] (E6)
    because each search contains the next smaller one: exactly for [Paper]
    (see {!Paper_opt}), up to {!Dp}'s caps and pruning for
    [Greedy_conservative] (see {!Baseline}).  One call runs one search. *)

type algorithm = Traditional | Greedy_conservative | Paper

type options = {
  algorithm : algorithm;
  work_mem : int;  (** operator memory budget, pages *)
  paper : Paper_opt.options;  (** pull-up restrictions, used by [Paper] *)
  predicate_moveround : bool;
      (** run {!Predicate_transfer} first (on for every algorithm by
          default — the paper treats it as pre-existing technique) *)
}

val default_options : options
(** [Paper] algorithm, 32 pages of work memory, default restrictions,
    predicate move-around on. *)

type result = {
  plan : Physical.t;  (** full plan, including the final projection *)
  est : Cost_model.est;
  search : Search_stats.t;  (** effort counters of the search *)
  report : Paper_opt.report option;  (** phase details when [Paper] ran *)
  time_ms : float;  (** wall-clock optimization time of this call *)
}

val optimize : ?options:options -> Catalog.t -> Block.query -> result
(** @raise Invalid_argument when the query fails {!Block.validate}. *)

val run :
  ?options:options -> Catalog.t -> Block.query -> Relation.t * Buffer_pool.stats
(** Optimize, then execute cold; returns the result and measured page IO. *)
