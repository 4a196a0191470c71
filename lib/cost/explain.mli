(** Annotated plan rendering: every node with its estimated rows, pages and
    cumulative IO cost (the EXPLAIN of this engine). *)

val node_label : Physical.t -> string
(** Verbose node label ("SeqScan emp AS e", "Limit 10", ...). *)

val children : Physical.t -> Physical.t list
(** Alias for {!Physical.inputs}; shared by {!Explain_analyze}. *)

val pp : Catalog.t -> work_mem:int -> Format.formatter -> Physical.t -> unit
