(** The pull-up transformation as a standalone operator-tree rewrite
    (paper, Section 3, Definition 1 and Figure 1).

    [rewrite cat tree] matches the plan shape P1

    {v Join [cond] (Group g1 (V)) R2 v}

    where R2 is a base-table access with a declared primary key, and
    produces the equivalent plan P2

    {v Project (Group g2 (Join [cond'] V R2)) v}

    with, per Definition 1:
    + grouping columns of g2 = grouping columns of g1 ∪ all columns of R2
      (a superset of R2's key, all functionally determined by it);
    + the aggregates of g1 carried over unchanged;
    + join predicates on aggregated columns of g1 deferred to the Having
      clause of g2;
    + the remaining join predicates kept in the join;
    and a final projection restoring P1's exact output schema.

    The equivalence of P1 and P2 is exercised by property tests that run
    both trees through {!Logical.eval} on randomized instances. *)

val rewrite : Catalog.t -> Logical.t -> Logical.t option
(** [None] when the tree does not have the P1 shape or R2 lacks a key. *)
