(** The avq wire protocol: typed requests and replies over {!Wire} frames.

    Deliberately minimal — a 1-byte opcode and newline-separated text
    fields (parameters are netstring-framed so any byte is legal in a
    string value).  One request gets exactly one reply; the server sends a
    [Hello] once per connection before the first request. *)

type request =
  | Query of string
      (** any session statement: SELECT, INSERT / matview DDL,
          [EXPLAIN ANALYZE], [\metrics], [\dm] *)
  | Set of string * string
      (** session variable: [timeout_ms], [spill_quota], [work_mem]; value
          ["default"] (or ["0"] for the first two) resets to the server
          default *)
  | Prepare of string * string  (** name, SQL template *)
  | Exec_prepared of string * Value.t list  (** name, parameter vector *)
  | Close

type reply =
  | Hello of { server : string; workers : int }
  | Result of { source : string; rows : int; ms : float; body : string }
      (** [source] is the plan-cache source label (or ["tag"] / ["text"]
          for DDL tags and directive output); [ms] is server-side wall
          time for the statement *)
  | Err of { kind : string; detail : string }
      (** [kind] is the {!Avq_error.kind_label} taxonomy tag, or
          ["protocol"] / ["internal"] *)

exception Protocol_error of string
(** Malformed payload (unknown opcode, missing field, bad value tag). *)

val encode_request : request -> string
val decode_request : string -> request
val encode_reply : reply -> string
val decode_reply : string -> reply

val render_value : Value.t -> string
(** Tagged, lossless parameter encoding ([i:42], [f:0x1.8p1], [s:abc],
    [b:true], [d:19000]); {!parse_value} inverts it exactly. *)

val parse_value : string -> Value.t
