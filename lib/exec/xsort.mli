(** External merge sort.

    If the input fits in [work_mem] pages the sort happens in memory with no
    extra IO; otherwise sorted runs of [work_mem] pages are spilled to temp
    files and merged with fan-in [work_mem - 1], exactly the behaviour the
    cost model prices. *)

val sort_batches :
  Exec_ctx.t -> compare:(Tuple.t -> Tuple.t -> int) -> Biter.t -> Biter.t
(** Drain the input batch-at-a-time into sorted runs (spilled when they
    outgrow [work_mem]) and serve the merged output as batches.  Closing the
    result drops the final runs. *)

val merge : (Tuple.t -> Tuple.t -> int) -> Tuple.t Seq.t list -> Tuple.t Seq.t
(** k-way merge of already-sorted runs using a binary min-heap over the run
    heads (O(log k) per tuple); ties break on run index.  The result is
    ephemeral: it reads each run once, so consume it once. *)

val by_columns : Schema.t -> Schema.column list -> Tuple.t -> Tuple.t -> int
(** Comparator on the given columns resolved against [schema].
    @raise Expr.Unresolved_column on a missing column. *)

val by_columns_dir :
  Schema.t -> Schema.column list -> desc:bool list ->
  Tuple.t -> Tuple.t -> int
(** Like {!by_columns} with a per-column direction flag parallel to the
    column list ([true] = descending); [desc = []] means all ascending. *)
