type t = {
  pool : Buffer_pool.t;
  next_file : int Atomic.t;
  (* Checksum verification switch shared by every heap this storage creates;
     flipped on when a fault plan is installed. *)
  verify : bool Atomic.t;
  (* Live temp-file count: create_temp/drop_temp bracket every spill file,
     so a non-zero value after a run is a leak. *)
  temps_live : int Atomic.t;
}

let create ?(frames = 256) () =
  { pool = Buffer_pool.create ~frames; next_file = Atomic.make 0;
    verify = Atomic.make false; temps_live = Atomic.make 0 }

let pool t = t.pool

let fresh_file t = Atomic.fetch_and_add t.next_file 1

let create_heap t schema =
  Heap_file.create ~pool:t.pool ~file_id:(fresh_file t) ~verify:t.verify schema

let create_index t ?order () =
  Btree.create ~pool:t.pool ~file_id:(fresh_file t) ?order ()

let build_index t heap ~column =
  let idx = create_index t () in
  Heap_file.scan heap (fun rid tup -> Btree.insert idx (Tuple.get tup column) rid);
  idx

let create_temp t schema =
  Atomic.incr t.temps_live;
  create_heap t schema

let drop_temp t heap =
  Atomic.decr t.temps_live;
  Heap_file.drop heap

let live_temps t = Atomic.get t.temps_live

let io_stats t = Buffer_pool.stats t.pool
let reset_io t = Buffer_pool.reset_stats t.pool

let io_snapshot _t = Buffer_pool.local_stats ()
let io_since _t before = Buffer_pool.diff (Buffer_pool.local_stats ()) before

(* ---- table write path ---- *)

module Table = struct
  let insert heap rows = List.map (Heap_file.append heap) rows
end

(* ---- fault injection ---- *)

(* Installing a plan arms the buffer pool (every read/write/alloc, heap,
   index and temp alike, consults it) and turns page-checksum verification
   on, so injected silent corruption is caught at fetch time. *)
module Faults = struct
  let install t plan =
    Buffer_pool.set_faults t.pool (Some plan);
    Atomic.set t.verify true

  let clear t =
    Buffer_pool.set_faults t.pool None;
    Atomic.set t.verify false

  let plan t = Buffer_pool.faults t.pool
  let stats t = Buffer_pool.fault_stats t.pool
  let reset_stats t = Buffer_pool.reset_fault_stats t.pool
end
