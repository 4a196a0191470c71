(** Legality of group-by placement: the applicability conditions behind the
    paper's transformations.

    - {b Invariant grouping} (Section 4.1): a group-by may be evaluated over
      a prefix of the join order and {e not} re-evaluated later iff every
      later-joined relation joins N:1 on grouping columns (equality on a key
      of that relation) so that later joins only eliminate or preserve whole
      groups.
    - {b Simple coalescing} (Section 4.2): a {e partial} group-by may be
      inserted over a prefix when all aggregates are decomposable and the
      columns later joins need are made part of the partial grouping key.
    - {b Minimal invariant set} (Section 4.1): the fixpoint of removing
      relations from an aggregate view's SPJ part by invariant grouping. *)

type group_spec = {
  gs_qual : string;  (** qualifier for the aggregate output columns *)
  gs_keys : Schema.column list;
  gs_aggs : Aggregate.t list;
  gs_having : Expr.pred list;
}

(** What a later-joined item looks like to the legality check. *)
type later_item = {
  li_aliases : string list;  (** aliases the item covers *)
  li_key : Schema.column list option;
      (** a key of the item's output (base table PK, or a pulled view's
          grouping columns); [None] = no usable key *)
}

val invariant_final_ok :
  spec:group_spec ->
  covered_aliases:string list ->
  remaining_items:later_item list ->
  remaining_preds:Expr.pred list ->
  bool
(** May [spec] be applied — finally, with Having — over a plan covering
    [covered_aliases], given the joins still to come?  Checks: keys and
    aggregate arguments available; every remaining predicate's covered-side
    columns are grouping keys; every remaining item is joined by equalities
    on grouping keys covering one of its keys. *)

type coalesce = {
  partial_keys : Schema.column list;  (** grouping keys of the added G2 *)
  partial_aggs : Aggregate.t list;
  combine_aggs : Aggregate.t list;  (** aggregates of the final G1 *)
  post : (Expr.t * string) list;  (** final expressions (AVG recombination) *)
}

val coalesce_at :
  spec:group_spec ->
  covered_aliases:string list ->
  remaining_preds:Expr.pred list ->
  coalesce option
(** The partial group-by (simple coalescing) applicable over a plan covering
    [covered_aliases], if any: all aggregate arguments must be available and
    decomposable.  The partial key is the covered part of [spec]'s keys plus
    every covered column that remaining predicates mention. *)

val minimal_invariant_set :
  Catalog.t -> Normalize.nview -> string list * (string * string) list
(** [(v', moved)] — aliases of the minimal invariant set, and the (alias,
    table) pairs that invariant grouping can move out of the view. *)
