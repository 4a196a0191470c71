type t = {
  pool : Buffer_pool.t;
  file_id : int;
  schema : Schema.t;
  page_capacity : int;
  mutable data : Tuple.t array;  (* growable; row i lives on page i/capacity *)
  mutable nrows : int;
  (* Per-page content checksums, maintained incrementally on append and
     verified on fetch when [verify] is on (see {!verify_page}): silent
     corruption of the backing rows becomes a typed [Corruption] error
     instead of wrong query results. *)
  mutable cksums : int array;
  verify : bool Atomic.t;
  (* Invoked with the page index just before a fresh page is allocated;
     [Exec_ctx] hooks temp heaps here to enforce the spill quota. *)
  mutable page_hook : (int -> unit) option;
}

let create ~pool ~file_id ?verify schema =
  {
    pool;
    file_id;
    schema;
    page_capacity = Page.capacity ~row_bytes:(Schema.byte_width schema);
    data = [||];
    nrows = 0;
    cksums = [||];
    verify = (match verify with Some v -> v | None -> Atomic.make false);
    page_hook = None;
  }

let file_id t = t.file_id
let page_capacity t = t.page_capacity
let nrows t = t.nrows

let set_page_hook t f = t.page_hook <- f

let npages t =
  if t.nrows = 0 then 0 else ((t.nrows - 1) / t.page_capacity) + 1

let grow t =
  let cap = Array.length t.data in
  if t.nrows >= cap then begin
    let cap' = max 64 (2 * cap) in
    let data' = Array.make cap' [||] in
    Array.blit t.data 0 data' 0 cap;
    t.data <- data'
  end

(* ---- page checksums ---- *)

let cksum_seed = 0x1505

let row_hash tup =
  Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 17 tup

let cksum_combine ck h = ((ck * 1000003) lxor h) land max_int

let grow_cksums t page =
  let cap = Array.length t.cksums in
  if page >= cap then begin
    let cks' = Array.make (max 16 (2 * max cap (page + 1))) cksum_seed in
    Array.blit t.cksums 0 cks' 0 cap;
    t.cksums <- cks'
  end

let page_checksum t page =
  let lo = page * t.page_capacity in
  let hi = min t.nrows (lo + t.page_capacity) in
  let ck = ref cksum_seed in
  for i = lo to hi - 1 do
    ck := cksum_combine !ck (row_hash t.data.(i))
  done;
  !ck

(* Snapshot of the maintained per-page checksums (not recomputed): a durable
   checkpoint stores these so recovery can verify the reloaded pages against
   what the writer believed it had. *)
let page_checksums t =
  Array.init (npages t) (fun p ->
      if p < Array.length t.cksums then t.cksums.(p) else cksum_seed)

let verify_page t page =
  if Atomic.get t.verify && page < Array.length t.cksums then begin
    let stored = t.cksums.(page) in
    let computed = page_checksum t page in
    if stored <> computed then
      Avq_error.error
        (Avq_error.Corruption
           {
             file = t.file_id;
             page;
             detail =
               Printf.sprintf "checksum mismatch (stored %#x, computed %#x)"
                 stored computed;
           })
  end

(* Every page fetch funnels through here: bounded retry for transient
   injected faults, then checksum verification of what "came off disk". *)
let read_page t page =
  Buffer_pool.read_retrying t.pool ~file:t.file_id ~page;
  verify_page t page

let corrupt t (rid : Page.rid) =
  let idx = (rid.page * t.page_capacity) + rid.slot in
  if idx < 0 || idx >= t.nrows then invalid_arg "Heap_file.corrupt: rid out of range";
  (* Flip the stored row without touching the page checksum — exactly what
     silent media corruption looks like to the fetch path. *)
  t.data.(idx) <-
    Array.map
      (function Value.Int i -> Value.Int (i lxor 1) | _ -> Value.Int 0)
      t.data.(idx)

let append t tup =
  grow t;
  let page = t.nrows / t.page_capacity in
  let slot = t.nrows mod t.page_capacity in
  if slot = 0 then begin
    (match t.page_hook with Some f -> f page | None -> ());
    Buffer_pool.alloc t.pool ~file:t.file_id ~page;
    grow_cksums t page;
    t.cksums.(page) <- cksum_seed
  end
  else Buffer_pool.write t.pool ~file:t.file_id ~page;
  t.data.(t.nrows) <- tup;
  t.nrows <- t.nrows + 1;
  t.cksums.(page) <- cksum_combine t.cksums.(page) (row_hash tup);
  { Page.page; slot }

let append_all t tuples = List.iter (fun tup -> ignore (append t tup)) tuples

let get t (rid : Page.rid) =
  let idx = (rid.page * t.page_capacity) + rid.slot in
  if idx < 0 || idx >= t.nrows || rid.slot >= t.page_capacity then
    Avq_error.error
      (Avq_error.Corruption
         {
           file = t.file_id;
           page = rid.page;
           detail =
             Printf.sprintf "rid (%d,%d) out of range (nrows=%d)" rid.page
               rid.slot t.nrows;
         });
  read_page t rid.page;
  t.data.(idx)

let scan t f =
  for i = 0 to t.nrows - 1 do
    let page = i / t.page_capacity in
    let slot = i mod t.page_capacity in
    if slot = 0 then read_page t page;
    f { Page.page; slot } t.data.(i)
  done

let scan_segment t ~page ~npages =
  let lo = page * t.page_capacity in
  if lo >= t.nrows || npages <= 0 then (t.data, lo, 0)
  else begin
    let last = min (page + npages - 1) ((t.nrows - 1) / t.page_capacity) in
    for p = page to last do
      read_page t p
    done;
    let hi = min t.nrows ((last + 1) * t.page_capacity) in
    (t.data, lo, hi - lo)
  end

let to_seq t =
  let rec from i () =
    if i >= t.nrows then Seq.Nil
    else begin
      if i mod t.page_capacity = 0 then read_page t (i / t.page_capacity);
      Seq.Cons (t.data.(i), from (i + 1))
    end
  in
  from 0

let to_relation t =
  let acc = ref [] in
  scan t (fun _rid tup -> acc := tup :: !acc);
  Relation.create t.schema (List.rev !acc)

let drop t = Buffer_pool.drop_file t.pool ~file:t.file_id
