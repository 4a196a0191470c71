type key = int * int

type frame = {
  key : key;
  mutable dirty : bool;
  mutable prev : frame option;
  mutable next : frame option;
}

type stats = { reads : int; writes : int; hits : int }

(* Per-domain IO tally.  Every counted event bumps both the pool's global
   (atomic) counters and the calling domain's tally.  A domain executes one
   query at a time, so the tally's growth over a window is exactly the IO
   that domain's query incurred — concurrent workers never perturb each
   other's measurement, unlike a shared reset-then-read counter. *)
module Tally = struct
  type c = { mutable treads : int; mutable twrites : int; mutable thits : int }

  let key = Domain.DLS.new_key (fun () -> { treads = 0; twrites = 0; thits = 0 })
  let get () = Domain.DLS.get key
end

type t = {
  capacity : int;
  lock : Mutex.t;
  table : (key, frame) Hashtbl.t;
  mutable head : frame option;  (* most recently used *)
  mutable tail : frame option;  (* least recently used *)
  reads : int Atomic.t;
  writes : int Atomic.t;
  hits : int Atomic.t;
  (* Fault injection: consulted before the op touches the LRU, so a faulted
     op costs no IO and leaves no frame behind.  [faults] is only swapped
     between runs; the per-op decision state lives inside the plan. *)
  mutable faults : Fault.t option;
  finjected : int Atomic.t;
  fretried : int Atomic.t;
  frecovered : int Atomic.t;
  fexhausted : int Atomic.t;
}

let create ~frames =
  if frames < 1 then invalid_arg "Buffer_pool.create: frames < 1";
  {
    capacity = frames;
    lock = Mutex.create ();
    table = Hashtbl.create (2 * frames);
    head = None;
    tail = None;
    reads = Atomic.make 0;
    writes = Atomic.make 0;
    hits = Atomic.make 0;
    faults = None;
    finjected = Atomic.make 0;
    fretried = Atomic.make 0;
    frecovered = Atomic.make 0;
    fexhausted = Atomic.make 0;
  }

(* ---- fault injection ---- *)

let set_faults t plan = t.faults <- plan
let faults t = t.faults

type fault_stats = {
  injected : int;  (** typed faults raised (IO failures and corruptions) *)
  retried : int;  (** individual retry attempts spent *)
  recovered : int;  (** reads that succeeded after >= 1 retry *)
  exhausted : int;  (** reads that still failed after the retry budget *)
}

let fault_stats t =
  { injected = Atomic.get t.finjected; retried = Atomic.get t.fretried;
    recovered = Atomic.get t.frecovered; exhausted = Atomic.get t.fexhausted }

let reset_fault_stats t =
  Atomic.set t.finjected 0;
  Atomic.set t.fretried 0;
  Atomic.set t.frecovered 0;
  Atomic.set t.fexhausted 0

let io_op_of = function
  | Fault.Read -> Avq_error.Read
  | Fault.Write -> Avq_error.Write
  | Fault.Alloc -> Avq_error.Alloc

let maybe_fault t ~(op : Fault.op) ~file ~page =
  match t.faults with
  | None -> ()
  | Some plan -> (
    match Fault.check plan ~op ~file ~page with
    | None -> ()
    | Some Fault.Fail ->
      Atomic.incr t.finjected;
      Avq_error.error
        (Avq_error.Io_fault { op = io_op_of op; file; page; attempts = 1 })
    | Some Fault.Corrupt ->
      Atomic.incr t.finjected;
      Avq_error.error
        (Avq_error.Corruption
           { file; page; detail = "injected checksum mismatch" }))

let count_read t =
  Atomic.incr t.reads;
  let c = Tally.get () in
  c.Tally.treads <- c.Tally.treads + 1

let count_write t =
  Atomic.incr t.writes;
  let c = Tally.get () in
  c.Tally.twrites <- c.Tally.twrites + 1

let count_hit t =
  Atomic.incr t.hits;
  let c = Tally.get () in
  c.Tally.thits <- c.Tally.thits + 1

let unlink t f =
  (match f.prev with Some p -> p.next <- f.next | None -> t.head <- f.next);
  (match f.next with Some n -> n.prev <- f.prev | None -> t.tail <- f.prev);
  f.prev <- None;
  f.next <- None

let push_front t f =
  f.next <- t.head;
  f.prev <- None;
  (match t.head with Some h -> h.prev <- Some f | None -> t.tail <- Some f);
  t.head <- Some f

let evict_lru t =
  match t.tail with
  | None -> ()
  | Some f ->
    unlink t f;
    Hashtbl.remove t.table f.key;
    if f.dirty then count_write t

let insert t key ~dirty =
  if Hashtbl.length t.table >= t.capacity then evict_lru t;
  let f = { key; dirty; prev = None; next = None } in
  Hashtbl.replace t.table key f;
  push_front t f

let touch t key ~dirty =
  match Hashtbl.find_opt t.table key with
  | Some f ->
    count_hit t;
    if dirty then f.dirty <- true;
    unlink t f;
    push_front t f;
    true
  | None -> false

let read t ~file ~page =
  maybe_fault t ~op:Fault.Read ~file ~page;
  Mutex.protect t.lock (fun () ->
      let key = (file, page) in
      if not (touch t key ~dirty:false) then begin
        count_read t;
        insert t key ~dirty:false
      end)

let write t ~file ~page =
  maybe_fault t ~op:Fault.Write ~file ~page;
  Mutex.protect t.lock (fun () ->
      let key = (file, page) in
      if not (touch t key ~dirty:true) then begin
        count_read t;
        insert t key ~dirty:true
      end)

let alloc t ~file ~page =
  maybe_fault t ~op:Fault.Alloc ~file ~page;
  Mutex.protect t.lock (fun () ->
      let key = (file, page) in
      if not (touch t key ~dirty:true) then insert t key ~dirty:true)

(* Exponentially-spun backoff: the engine's "disk" is simulated, so the
   backoff only needs to model give-the-device-a-moment semantics without
   adding a Unix dependency or real latency to tests.  With jitter > 0 the
   spin count is scaled by a factor in [1-jitter, 1+jitter) drawn from the
   plan's stateless hash — a pure function of (seed, salt, attempt), so any
   scheduled replay is still reproducible while workers with different
   salts desynchronize instead of hammering a hot page in lockstep. *)
let backoff_spins ?(jitter = 0.) ~seed ~salt attempt =
  let base = 1 lsl min attempt 10 in
  if jitter <= 0. then base
  else begin
    let u = Fault.hash_unit seed salt attempt in
    let f = 1. +. (jitter *. ((2. *. u) -. 1.)) in
    max 1 (int_of_float (float_of_int base *. f))
  end

let backoff ?jitter ~seed ~salt attempt =
  for _ = 1 to backoff_spins ?jitter ~seed ~salt attempt do
    Domain.cpu_relax ()
  done

(* Bounded retry for transient faults.  Only [Io_fault] is retried —
   [Corruption] is permanent by definition and re-raised untouched.  The
   retry budget comes from the installed plan ([Fault.retries]), so a
   fault-free pool pays exactly one match on [t.faults] per read. *)
let read_retrying t ~file ~page =
  let max_retries, jitter, seed =
    match t.faults with
    | None -> (0, 0., 0)
    | Some plan -> (Fault.retries plan, Fault.jitter plan, Fault.seed plan)
  in
  (* The salt folds in the domain so concurrent workers retrying the same
     hot page draw different jitter streams. *)
  let salt =
    (file * 8191) lxor page lxor (((Domain.self () :> int) + 1) * 0x9e3779b9)
  in
  let rec go attempt =
    match read t ~file ~page with
    | () -> if attempt > 1 then Atomic.incr t.frecovered
    | exception Avq_error.Error (Avq_error.Io_fault f) ->
      if attempt > max_retries then begin
        Atomic.incr t.fexhausted;
        Avq_error.error (Avq_error.Io_fault { f with attempts = attempt })
      end
      else begin
        Atomic.incr t.fretried;
        backoff ~jitter ~seed ~salt attempt;
        go (attempt + 1)
      end
  in
  go 1

let drop_file t ~file =
  Mutex.protect t.lock (fun () ->
      let doomed =
        Hashtbl.fold
          (fun (f, p) fr acc -> if f = file then (fr, p) :: acc else acc)
          t.table []
      in
      List.iter
        (fun (fr, _p) ->
          unlink t fr;
          Hashtbl.remove t.table fr.key)
        doomed)

let flush_all t =
  Mutex.protect t.lock (fun () ->
      Hashtbl.iter
        (fun _ f ->
          if f.dirty then begin
            f.dirty <- false;
            count_write t
          end)
        t.table)

let clear t =
  Mutex.protect t.lock (fun () ->
      Hashtbl.reset t.table;
      t.head <- None;
      t.tail <- None)

let stats t =
  { reads = Atomic.get t.reads; writes = Atomic.get t.writes;
    hits = Atomic.get t.hits }

let reset_stats t =
  Atomic.set t.reads 0;
  Atomic.set t.writes 0;
  Atomic.set t.hits 0

let local_stats () =
  let c = Tally.get () in
  { reads = c.Tally.treads; writes = c.Tally.twrites; hits = c.Tally.thits }

let diff (a : stats) (b : stats) =
  { reads = a.reads - b.reads; writes = a.writes - b.writes;
    hits = a.hits - b.hits }

let resident t ~file ~page =
  Mutex.protect t.lock (fun () -> Hashtbl.mem t.table (file, page))

let pp_stats ppf (s : stats) =
  Format.fprintf ppf "reads=%d writes=%d hits=%d" s.reads s.writes s.hits
