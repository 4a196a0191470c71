(** Redo recovery at startup: load the last checkpoint (or seed the
    workload when none exists), replay the WAL tail idempotently, and hand
    back an open writer positioned after everything recovered.

    Replay is commit-gated — a data record is applied only if a [Commit]
    sealing its LSN reached disk; anything else was never acknowledged to a
    client and is dropped, so recovered state is always a statement
    boundary ("view either old or new, never partial").  Torn WAL tails
    are cut off gracefully, and restored heap pages are verified against
    the checkpoint's per-page checksums. *)

exception Error of string
(** Refusals: a data directory created for a different workload identity,
    or a path that is not a directory. *)

type stats = {
  checkpoint_loaded : bool;
  tables_restored : int;
  matviews_restored : int;
  replayed : int;  (** committed data records applied *)
  skipped : int;  (** data records covered by the checkpoint or uncommitted *)
  torn : bool;  (** the WAL ended in a torn record (cut off) *)
  wal_bytes : int;  (** parseable WAL bytes scanned *)
  duration_ms : float;
}

val wal_path : data_dir:string -> string

val recover :
  data_dir:string ->
  ?fsync_mode:Wal.fsync_mode ->
  ?meta:string ->
  seed:(unit -> Catalog.t) ->
  unit ->
  Catalog.t * Matview.t * Wal.writer * stats
(** [meta] pins the directory to a workload identity (e.g.
    ["db=emp_dept;scale=1;seed=42"]): written on first open, compared on
    every later one.
    @raise Error on an identity mismatch.
    @raise Checkpoint.Corrupt on a damaged checkpoint or page-checksum
    divergence. *)
