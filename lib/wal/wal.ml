(* Write-ahead log: binary, length-prefixed, CRC-checksummed records.

   On-disk layout: an 8-byte magic header, then a sequence of frames
   [u32 len][u32 crc][payload]; the CRC covers the payload only.  Every
   payload starts with the record's LSN (monotonic across checkpoints and
   restarts) and a tag byte.  A reader stops at the first frame that is
   short or fails its CRC — a torn tail is the expected shape of a crash
   mid-append and is reported, not raised. *)

let magic = "AVQWAL01"
let header_len = String.length magic

(* ---- CRC32 (IEEE 802.3) ---- *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s =
  let t = Lazy.force crc_table in
  let c = ref 0xffffffff in
  String.iter
    (fun ch -> c := t.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8))
    s;
  !c lxor 0xffffffff

(* ---- value / tuple codec (shared with Checkpoint) ---- *)

module Codec = struct
let add_u32 buf n = Buffer.add_int32_be buf (Int32.of_int n)
let add_i64 buf n = Buffer.add_int64_be buf n

let add_string buf s =
  add_u32 buf (String.length s);
  Buffer.add_string buf s

let add_value buf (v : Value.t) =
  match v with
  | Value.Int n ->
    Buffer.add_char buf '\000';
    add_i64 buf (Int64.of_int n)
  | Value.Float f ->
    Buffer.add_char buf '\001';
    add_i64 buf (Int64.bits_of_float f)
  | Value.String s ->
    Buffer.add_char buf '\002';
    add_string buf s
  | Value.Bool b ->
    Buffer.add_char buf '\003';
    Buffer.add_char buf (if b then '\001' else '\000')
  | Value.Date d ->
    Buffer.add_char buf '\004';
    add_i64 buf (Int64.of_int d)

let add_rows buf rows =
  add_u32 buf (List.length rows);
  List.iter
    (fun row ->
      add_u32 buf (Array.length row);
      Array.iter (add_value buf) row)
    rows

exception Decode_error

type cursor = { src : string; mutable pos : int }

let need c n = if c.pos + n > String.length c.src then raise Decode_error

let get_u32 c =
  need c 4;
  let n = Int32.to_int (String.get_int32_be c.src c.pos) in
  c.pos <- c.pos + 4;
  if n < 0 then raise Decode_error;
  n

let get_i64 c =
  need c 8;
  let n = String.get_int64_be c.src c.pos in
  c.pos <- c.pos + 8;
  n

let get_byte c =
  need c 1;
  let b = Char.code c.src.[c.pos] in
  c.pos <- c.pos + 1;
  b

let get_string c =
  let n = get_u32 c in
  need c n;
  let s = String.sub c.src c.pos n in
  c.pos <- c.pos + n;
  s

let get_value c : Value.t =
  match get_byte c with
  | 0 -> Value.Int (Int64.to_int (get_i64 c))
  | 1 -> Value.Float (Int64.float_of_bits (get_i64 c))
  | 2 -> Value.String (get_string c)
  | 3 -> Value.Bool (get_byte c <> 0)
  | 4 -> Value.Date (Int64.to_int (get_i64 c))
  | _ -> raise Decode_error

let get_rows c =
  let n = get_u32 c in
  List.init n (fun _ ->
      let arity = get_u32 c in
      Array.init arity (fun _ -> get_value c))

let add_bool buf b = Buffer.add_char buf (if b then '\001' else '\000')
let get_bool c = get_byte c <> 0

let add_opt add buf = function
  | None -> add_bool buf false
  | Some v ->
    add_bool buf true;
    add buf v

let get_opt get c = if get_bool c then Some (get c) else None

let add_list add buf xs =
  add_u32 buf (List.length xs);
  List.iter (add buf) xs

let get_list get c =
  let n = get_u32 c in
  List.init n (fun _ -> get c)
end

open Codec

(* ---- records ---- *)

type record =
  | Insert of { table : string; rows : Tuple.t list }
      (** rows in the bound (INSERT-visible) width; replay goes back through
          [Catalog.insert], which re-synthesizes hidden [_rid]s identically
          because replay preserves heap row order *)
  | Mv_delta of { view : string; table : string; rows : int }
      (** informational marker: an insert's delta was absorbed by [view];
          replay re-derives the absorption from the Insert record itself *)
  | Create_matview of { name : string; sql : string }
  | Drop_matview of string
  | Refresh_matview of string
  | Checkpoint_begin
  | Checkpoint_end of { ckpt_lsn : int64 }
  | Commit of int64  (** LSN of the data record this commit seals *)

let tag_of = function
  | Insert _ -> 1
  | Mv_delta _ -> 2
  | Create_matview _ -> 3
  | Drop_matview _ -> 4
  | Refresh_matview _ -> 5
  | Checkpoint_begin -> 6
  | Checkpoint_end _ -> 7
  | Commit _ -> 8

let record_name = function
  | Insert _ -> "insert"
  | Mv_delta _ -> "mv-delta"
  | Create_matview _ -> "create-matview"
  | Drop_matview _ -> "drop-matview"
  | Refresh_matview _ -> "refresh-matview"
  | Checkpoint_begin -> "checkpoint-begin"
  | Checkpoint_end _ -> "checkpoint-end"
  | Commit _ -> "commit"

let encode_payload ~lsn record =
  let buf = Buffer.create 64 in
  add_i64 buf lsn;
  Buffer.add_char buf (Char.chr (tag_of record));
  (match record with
   | Insert { table; rows } ->
     add_string buf table;
     add_rows buf rows
   | Mv_delta { view; table; rows } ->
     add_string buf view;
     add_string buf table;
     add_u32 buf rows
   | Create_matview { name; sql } ->
     add_string buf name;
     add_string buf sql
   | Drop_matview name -> add_string buf name
   | Refresh_matview name -> add_string buf name
   | Checkpoint_begin -> ()
   | Checkpoint_end { ckpt_lsn } -> add_i64 buf ckpt_lsn
   | Commit lsn' -> add_i64 buf lsn');
  Buffer.contents buf

let decode_payload payload =
  let c = { src = payload; pos = 0 } in
  let lsn = get_i64 c in
  let record =
    match get_byte c with
    | 1 ->
      let table = get_string c in
      Insert { table; rows = get_rows c }
    | 2 ->
      let view = get_string c in
      let table = get_string c in
      Mv_delta { view; table; rows = get_u32 c }
    | 3 ->
      let name = get_string c in
      Create_matview { name; sql = get_string c }
    | 4 -> Drop_matview (get_string c)
    | 5 -> Refresh_matview (get_string c)
    | 6 -> Checkpoint_begin
    | 7 -> Checkpoint_end { ckpt_lsn = get_i64 c }
    | 8 -> Commit (get_i64 c)
    | _ -> raise Decode_error
  in
  if c.pos <> String.length payload then raise Decode_error;
  (lsn, record)

let encode ~lsn record =
  let payload = encode_payload ~lsn record in
  let buf = Buffer.create (8 + String.length payload) in
  add_u32 buf (String.length payload);
  add_u32 buf (crc32 payload);
  Buffer.add_string buf payload;
  Buffer.contents buf

(* ---- reading ---- *)

type read_result = {
  records : (int64 * record) list;
  torn : bool;  (** trailing bytes that do not parse as a whole record *)
  valid_bytes : int;  (** length of the parseable prefix (incl. header) *)
}

let read_all path =
  if not (Sys.file_exists path) then
    { records = []; torn = false; valid_bytes = 0 }
  else begin
    let src = In_channel.with_open_bin path In_channel.input_all in
    let n = String.length src in
    if n < header_len || String.sub src 0 header_len <> magic then
      { records = []; torn = n > 0; valid_bytes = 0 }
    else begin
      let records = ref [] in
      let pos = ref header_len in
      let stop = ref false in
      while not !stop do
        if !pos + 8 > n then stop := true
        else begin
          let len = Int32.to_int (String.get_int32_be src !pos) in
          let crc = Int32.to_int (String.get_int32_be src (!pos + 4)) land 0xffffffff in
          if len < 0 || !pos + 8 + len > n then stop := true
          else begin
            let payload = String.sub src (!pos + 8) len in
            if crc32 payload <> crc then stop := true
            else
              match decode_payload payload with
              | lsn, r ->
                records := (lsn, r) :: !records;
                pos := !pos + 8 + len
              | exception Decode_error -> stop := true
          end
        end
      done;
      { records = List.rev !records; torn = !pos < n; valid_bytes = !pos }
    end
  end

(* ---- crash-point scripting (torture harness) ----

   Spec grammar, in the spirit of [Fault.parse]:
   {v at=<n>+<n>+..[;torn] v}
   The writer SIGKILLs its own process just after the [n]-th frame it
   appends (1-based, commits and checkpoint markers count too); with
   [torn], only a prefix of that frame's bytes reaches the file first —
   simulating a crash mid-write that leaves a torn tail. *)

type crash = { crash_at : int list; crash_torn : bool }

let parse_crash spec =
  let entries =
    String.split_on_char ';' spec
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  let at = ref [] and torn = ref false and err = ref None in
  List.iter
    (fun entry ->
      if !err = None then
        match entry with
        | "torn" -> torn := true
        | _ -> (
          match String.index_opt entry '=' with
          | Some i when String.sub entry 0 i = "at" ->
            let v = String.sub entry (i + 1) (String.length entry - i - 1) in
            let parts = String.split_on_char '+' v in
            let ns = List.filter_map int_of_string_opt parts in
            if
              List.length ns <> List.length parts
              || ns = []
              || List.exists (fun n -> n < 1) ns
            then
              err :=
                Some (Printf.sprintf "at expects 1-based <n>+<n>+.., got %S" v)
            else at := !at @ ns
          | _ -> err := Some (Printf.sprintf "unknown crash entry %S" entry)))
    entries;
  match !err with
  | Some e -> Error e
  | None ->
    if !at = [] then Error "crash plan has no at= points"
    else Ok { crash_at = !at; crash_torn = !torn }

(* ---- writer ---- *)

type fsync_mode = Fsync_always | Fsync_group of float | Fsync_never

type wstats = {
  records : int;
  commits : int;
  bytes : int;  (** current log size, header included *)
  fsyncs : int;
  deferred : int;  (** commits whose fsync was deferred (group / never) *)
  truncations : int;
  appended_bytes : int;  (** cumulative bytes appended; survives truncation *)
}

type writer = {
  fd : Unix.file_descr;
  wpath : string;
  mode : fsync_mode;
  mutable next_lsn : int64;
  mutable size : int;
  mutable dirty : bool;
  mutable last_sync : float;
  mutable wrecords : int;
  mutable wcommits : int;
  mutable wfsyncs : int;
  mutable wdeferred : int;
  mutable wtruncations : int;
  mutable crash_plan : crash option;
  mutable appends : int;
  mutable wappended_bytes : int;
  mutable closed : bool;
}

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let sent = ref 0 in
  while !sent < n do
    sent := !sent + Unix.write fd b !sent (n - !sent)
  done

let fsync w =
  Unix.fsync w.fd;
  w.wfsyncs <- w.wfsyncs + 1;
  w.dirty <- false;
  w.last_sync <- Unix.gettimeofday ()

(* Opening scans the existing log: a torn tail is cut off (those bytes were
   never part of a committed record) and the LSN counter resumes after the
   highest surviving LSN, so LSNs stay monotonic across restarts. *)
let open_writer ?(fsync_mode = Fsync_always) ?(lsn_floor = 0L) path =
  let existing = read_all path in
  let next_lsn =
    List.fold_left
      (fun acc (lsn, _) -> if Int64.compare lsn acc >= 0 then Int64.succ lsn else acc)
      (Int64.succ lsn_floor) existing.records
  in
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  let size =
    if existing.valid_bytes = 0 then begin
      Unix.ftruncate fd 0;
      write_all fd magic;
      header_len
    end
    else begin
      Unix.ftruncate fd existing.valid_bytes;
      ignore (Unix.lseek fd existing.valid_bytes Unix.SEEK_SET);
      existing.valid_bytes
    end
  in
  Unix.fsync fd;
  {
    fd;
    wpath = path;
    mode = fsync_mode;
    next_lsn;
    size;
    dirty = false;
    last_sync = Unix.gettimeofday ();
    wrecords = 0;
    wcommits = 0;
    wfsyncs = 0;
    wdeferred = 0;
    wtruncations = 0;
    crash_plan = None;
    appends = 0;
    wappended_bytes = 0;
    closed = false;
  }

let set_crash w plan = w.crash_plan <- plan
let size w = w.size
let last_lsn w = Int64.pred w.next_lsn

let stats w =
  {
    records = w.wrecords;
    commits = w.wcommits;
    bytes = w.size;
    fsyncs = w.wfsyncs;
    deferred = w.wdeferred;
    truncations = w.wtruncations;
    appended_bytes = w.wappended_bytes;
  }

let die_here w ~frame ~torn =
  (* A scripted crash: optionally leave a torn prefix of the frame, force
     it to disk so recovery really sees it, then go down hard. *)
  if torn then begin
    let cut = max 1 (String.length frame / 2) in
    write_all w.fd (String.sub frame 0 cut)
  end
  else write_all w.fd frame;
  Unix.fsync w.fd;
  Unix.kill (Unix.getpid ()) Sys.sigkill

let raw_append w record =
  if w.closed then invalid_arg "Wal: append on a closed writer";
  let lsn = w.next_lsn in
  let frame = encode ~lsn record in
  w.appends <- w.appends + 1;
  (match w.crash_plan with
   | Some c when List.mem w.appends c.crash_at ->
     die_here w ~frame ~torn:c.crash_torn
   | _ -> ());
  write_all w.fd frame;
  w.next_lsn <- Int64.succ lsn;
  w.size <- w.size + String.length frame;
  w.wappended_bytes <- w.wappended_bytes + String.length frame;
  w.dirty <- true;
  w.wrecords <- w.wrecords + 1;
  lsn

(* Data records are written but not forced; durability is decided at the
   commit record (see [commit]).  [Fsync_always] still forces every append
   so the write-ahead invariant holds even against power-cut semantics. *)
let append w record =
  let lsn = raw_append w record in
  (match w.mode with Fsync_always -> fsync w | _ -> ());
  lsn

let commit w data_lsn =
  ignore (raw_append w (Commit data_lsn));
  w.wcommits <- w.wcommits + 1;
  (match w.mode with
   | Fsync_always -> fsync w
   | Fsync_group window_ms ->
     if Unix.gettimeofday () -. w.last_sync >= window_ms /. 1000. then fsync w
     else w.wdeferred <- w.wdeferred + 1
   | Fsync_never -> w.wdeferred <- w.wdeferred + 1)

let flush w = if w.dirty then fsync w

(* After a checkpoint the whole prefix is redundant: cut the log back to its
   header.  LSNs keep counting — recovery skips anything at or below the
   checkpoint's [ckpt_lsn], so replay stays idempotent even if the
   truncation itself is lost. *)
let truncate w =
  flush w;
  Unix.ftruncate w.fd header_len;
  ignore (Unix.lseek w.fd header_len Unix.SEEK_SET);
  w.size <- header_len;
  w.wtruncations <- w.wtruncations + 1;
  Unix.fsync w.fd

let close w =
  if not w.closed then begin
    flush w;
    w.closed <- true;
    try Unix.close w.fd with Unix.Unix_error _ -> ()
  end
