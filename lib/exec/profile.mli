(** Per-operator execution counters.

    {!Executor.run_profiled} threads a profile through plan opening: each
    physical operator registers a node (children nested under parents) and
    its iterator is wrapped to count rows out, batches and wall time.
    [ms] is inclusive wall time of [next_batch] calls (the printer subtracts
    children to show self time).

    Blocking operators (hash build, sort, group) do their input-draining
    work while {e opening}, before the first [next_batch] — that cost lands
    in [open_ms]/[open_reads]/[open_writes], measured by the executor around
    the raw open call.  {!total_ms} and {!total_reads}/{!total_writes} are
    therefore inclusive of the node's whole subtree, so a root's totals
    match the statement's execute time and IO. *)

type node = {
  pname : string;
  mutable rows_out : int;
  mutable batches : int;
  mutable ms : float;  (* inclusive wall time of next_batch pulls *)
  mutable open_ms : float;  (* wall time spent opening (blocking work) *)
  mutable reads : int;  (* pages read during pulls, inclusive of subtree *)
  mutable writes : int;
  mutable hits : int;  (* pool hits during pulls *)
  mutable open_reads : int;  (* pages read while opening *)
  mutable open_writes : int;
  mutable open_hits : int;
  mutable children : node list;
}

type t

val create : unit -> t

val enter : t -> string -> node
(** Open a node under the current parent and make it the parent for nodes
    registered until the matching {!leave}. *)

val leave : t -> unit

val roots : t -> node list
val children : node -> node list

val set_error : t -> string -> unit
(** Mark the profile as partial: the statement failed mid-run and counters
    reflect work done up to the failure.  First caller wins. *)

val error : t -> string option

val total_ms : node -> float
(** [open_ms +. ms]: inclusive wall time for the node's subtree. *)

val total_reads : node -> int
val total_writes : node -> int
val total_hits : node -> int

val total_touches : node -> int
(** [reads + writes + hits], open + pulls: every buffer-pool page touch in
    the node's subtree.  The cost model prices page touches (it has no
    caching notion), so this is the estimate-comparable actual, stable
    whether the pool is cold or warm. *)

val wrap_biter : node -> Biter.t -> Biter.t

val to_string : t -> string
