type t = {
  schema : Schema.t;
  next_batch : unit -> Batch.t option;
  close : unit -> unit;
}

(* Idempotent close: operators like Limit close their input eagerly, and the
   exception-safe drains below close again in a [finally] — the second call
   must be a no-op. *)
let once close =
  let closed = ref false in
  fun () ->
    if not !closed then begin
      closed := true;
      close ()
    end

(* Chunk a row array into batches of [Batch.default_rows]. *)
let of_rows schema rows =
  let n = Array.length rows in
  let pos = ref 0 in
  let next_batch () =
    if !pos >= n then None
    else begin
      let len = min Batch.default_rows (n - !pos) in
      let b = Batch.of_rows schema (Array.sub rows !pos len) in
      pos := !pos + len;
      Some b
    end
  in
  { schema; next_batch; close = (fun () -> pos := n) }

(* Chunk a sequence into batches of [Batch.default_rows], pulling only as
   many elements as the batch being built needs. *)
let of_seq schema seq =
  let rest = ref seq in
  let buf = Array.make Batch.default_rows [||] in
  let next_batch () =
    let rec fill n =
      if n = Batch.default_rows then n
      else
        match !rest () with
        | Seq.Nil -> n
        | Seq.Cons (tup, tl) ->
          rest := tl;
          buf.(n) <- tup;
          fill (n + 1)
    in
    let n = fill 0 in
    (* Copy out: [buf] is reused across batches. *)
    if n = 0 then None else Some (Batch.of_rows schema (Array.sub buf 0 n))
  in
  { schema; next_batch; close = (fun () -> rest := Seq.empty) }

let iter f t =
  let rec loop () =
    match t.next_batch () with
    | None -> ()
    | Some b ->
      f b;
      loop ()
  in
  (* Close the source even when [f] or a producer raises mid-pipeline, so
     scans and spills under this iterator release their resources; [once]
     keeps the close single-shot when the source already closed eagerly. *)
  Fun.protect ~finally:(once t.close) loop

let iter_rows f t = iter (fun b -> Batch.iter f b) t

let to_list t =
  let acc = ref [] in
  iter (fun b -> Batch.iter (fun tup -> acc := tup :: !acc) b) t;
  List.rev !acc

let to_relation t = Relation.create t.schema (to_list t)
