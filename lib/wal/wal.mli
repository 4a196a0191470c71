(** Write-ahead log: binary, length-prefixed, CRC32-checksummed records.

    File layout: 8-byte magic ["AVQWAL01"], then frames
    [[u32 len][u32 crc][payload]] where [payload] is [[i64 lsn][u8 tag][body]].
    Readers stop gracefully at the first short or corrupt frame — a torn
    tail is the normal residue of a crash mid-append. *)

type record =
  | Insert of { table : string; rows : Tuple.t list }
      (** rows in the bound (INSERT-visible) width; replay re-runs
          [Catalog.insert], which re-synthesizes hidden [_rid]s identically *)
  | Mv_delta of { view : string; table : string; rows : int }
      (** informational: an insert delta was absorbed into [view] *)
  | Create_matview of { name : string; sql : string }
  | Drop_matview of string
  | Refresh_matview of string
  | Checkpoint_begin
  | Checkpoint_end of { ckpt_lsn : int64 }
  | Commit of int64  (** seals the data record with this LSN *)

val record_name : record -> string

val encode : lsn:int64 -> record -> string
(** Full frame bytes ([len ^ crc ^ payload]) — exposed for tests that craft
    torn or corrupted tails by hand. *)

val crc32 : string -> int

(** Binary primitives shared with {!Checkpoint} (big-endian, tagged
    values). *)
module Codec : sig
  exception Decode_error

  type cursor = { src : string; mutable pos : int }

  val add_u32 : Buffer.t -> int -> unit
  val add_i64 : Buffer.t -> int64 -> unit
  val add_string : Buffer.t -> string -> unit
  val add_bool : Buffer.t -> bool -> unit
  val add_rows : Buffer.t -> Tuple.t list -> unit
  val add_opt : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a option -> unit
  val add_list : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a list -> unit
  val get_u32 : cursor -> int
  val get_i64 : cursor -> int64
  val get_string : cursor -> string
  val get_bool : cursor -> bool
  val get_byte : cursor -> int
  val get_rows : cursor -> Tuple.t list
  val get_opt : (cursor -> 'a) -> cursor -> 'a option
  val get_list : (cursor -> 'a) -> cursor -> 'a list
end

(** {1 Reading} *)

type read_result = {
  records : (int64 * record) list;  (** parseable prefix, in log order *)
  torn : bool;  (** trailing bytes did not form a whole valid record *)
  valid_bytes : int;  (** length of the parseable prefix, header included *)
}

val read_all : string -> read_result
(** Never raises on torn/corrupt input; a missing file reads as empty. *)

(** {1 Crash-point scripting (torture harness)} *)

type crash = { crash_at : int list; crash_torn : bool }

val parse_crash : string -> (crash, string) result
(** Grammar: [at=<n>+<n>..][;torn] — SIGKILL the process on the n-th frame
    appended (1-based; commits and checkpoint markers count). With [torn],
    only a prefix of that frame reaches the file first. *)

(** {1 Writer} *)

type fsync_mode =
  | Fsync_always  (** fsync every append — full write-ahead durability *)
  | Fsync_group of float
      (** group commit: fsync at most once per window (milliseconds) *)
  | Fsync_never  (** fsync only on [flush]/[truncate]/[close] *)

type writer

type wstats = {
  records : int;
  commits : int;
  bytes : int;  (** current log size, header included *)
  fsyncs : int;
  deferred : int;  (** commits whose fsync was deferred (group / never) *)
  truncations : int;
  appended_bytes : int;  (** cumulative bytes appended; survives truncation *)
}

val open_writer : ?fsync_mode:fsync_mode -> ?lsn_floor:int64 -> string -> writer
(** Creates the file (with header) if absent. An existing log is scanned:
    any torn tail is truncated away and the LSN counter resumes after the
    highest surviving LSN and past [lsn_floor] (pass the checkpoint's
    [last_lsn] — a checkpoint truncates the log, so the log alone cannot
    remember how far the counter got). Default mode is [Fsync_always]. *)

val append : writer -> record -> int64
(** Append one record, returning its LSN. Forces to disk only under
    [Fsync_always]; durability is otherwise decided at [commit]. *)

val commit : writer -> int64 -> unit
(** Append a [Commit] sealing the given data LSN, then fsync per mode. *)

val flush : writer -> unit
(** Force any buffered appends to disk. *)

val truncate : writer -> unit
(** Cut the log back to its header (after a checkpoint). LSNs keep
    counting, so replay stays idempotent even if the truncation is lost. *)

val close : writer -> unit
val set_crash : writer -> crash option -> unit
val size : writer -> int
val last_lsn : writer -> int64
val stats : writer -> wstats
