(** Deterministic 64-bit FNV-1a fingerprints.

    Cache keys must be stable across runs, machines and OCaml versions, so
    the service layer never hashes query structures with the polymorphic
    [Hashtbl.hash] (whose value depends on the runtime's memory
    representation); it serializes them canonically ({!Canon.serialize})
    and fingerprints the bytes with this module. *)

type t = int64

val of_string : string -> t

val to_hex : t -> string
(** 16-digit lowercase hex, the form used in composed cache keys. *)
