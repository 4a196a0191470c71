(** Static validation of physical plans.

    Checks the invariants the executor trusts the planner to maintain:
    - every column reference (filters, join conditions, projections,
      aggregate arguments, grouping keys, having clauses) resolves in the
      schema available at that node;
    - [Merge_join] inputs are sorted on the join keys and [Sort_group]
      inputs on the grouping keys (per {!Physical.sorted_on});
    - the inner of a [Block_nl_join] is rescannable (a scan or a
      [Materialize]);
    - [Index_scan] and [Index_nl_join] target existing indexes.

    Used by the optimizer tests on every produced plan, and available to
    callers embedding the optimizer. *)

val check : Catalog.t -> Physical.t -> (unit, string) result
(** [Ok ()] or [Error description-of-first-violation]. *)
