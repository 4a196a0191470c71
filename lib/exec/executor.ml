module Tuple_key = struct
  type t = Tuple.t

  let equal = Tuple.equal
  let hash t = Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 17 t
end

module TH = Hashtbl.Make (Tuple_key)

module Value_key = struct
  type t = Value.t

  let equal a b = Value.compare a b = 0

  (* Cheaper than {!Value.hash} on the dominant [Int] case (no intermediate
     tuple allocation), but still consistent with [equal]: an [Int] and the
     integral [Float] it equals hash identically. *)
  let hash = function
    | Value.Int i -> Hashtbl.hash i
    | Value.Float f when Float.is_integer f && Float.abs f < 1e18 ->
      Hashtbl.hash (int_of_float f)
    | v -> Value.hash v
end

(* Value-keyed table for the vectorized single-key group path. *)
module VH = Hashtbl.Make (Value_key)

let compile_preds schema preds =
  match Expr.conjoin preds with
  | None -> fun _ -> true
  | Some p -> Expr.compile_pred schema p

let swap_cmp = function
  | Expr.Eq -> Expr.Eq
  | Expr.Ne -> Expr.Ne
  | Expr.Lt -> Expr.Gt
  | Expr.Le -> Expr.Ge
  | Expr.Gt -> Expr.Lt
  | Expr.Ge -> Expr.Le

(* Batch filter compiler: one selection kernel per conjunct.  The common
   post-pushdown shape [col <cmp> int-const] gets the vectorized primitive
   ({!Batch.select_int_cmp}); anything else runs the generic compiled
   predicate per live row.  Conjuncts are applied in order, matching the
   short-circuiting [And] of {!Expr.compile_pred}. *)
let compile_batch_preds schema preds : (Batch.t -> Batch.t) list =
  List.concat_map Expr.conjuncts preds
  |> List.map (fun p ->
         match p with
         | Expr.Cmp (op, Expr.Col c, Expr.Const (Value.Int k)) ->
           let idx = Expr.resolve_column schema c in
           fun b -> Batch.select_int_cmp ~op ~idx k b
         | Expr.Cmp (op, Expr.Const (Value.Int k), Expr.Col c) ->
           let idx = Expr.resolve_column schema c in
           let op = swap_cmp op in
           fun b -> Batch.select_int_cmp ~op ~idx k b
         | p ->
           let f = Expr.compile_pred schema p in
           fun b -> Batch.select f b)

let index_exn (tbl : Catalog.table) column =
  match Catalog.index_on tbl column with
  | Some i -> i
  | None ->
    invalid_arg (Printf.sprintf "Executor: no index on %s.%s" tbl.Catalog.tname column)

let resolve_all schema cols =
  Array.of_list (List.map (Expr.resolve_column schema) cols)

let compare_keys a b =
  let n = Array.length a in
  let rec loop i =
    if i >= n then 0
    else
      let c = Value.compare a.(i) b.(i) in
      if c <> 0 then c else loop (i + 1)
  in
  loop 0

(* Argument extractors for a list of aggregates against an input schema. *)
let agg_arg_fns schema aggs =
  List.map
    (fun (a : Aggregate.t) ->
      match a.Aggregate.arg with
      | None -> fun _ -> None
      | Some e ->
        let f = Expr.compile schema e in
        fun tup -> Some (f tup))
    aggs

let init_states aggs = List.map (fun (a : Aggregate.t) -> Aggregate.init a.Aggregate.func) aggs

(* Unboxed accumulation for the common all-int aggregate shapes —
   COUNT star, COUNT(col) and SUM over an Int-typed column.  [int_agg_plan]
   returns one kernel descriptor per aggregate when every aggregate in the
   list qualifies, so the batch group operator can keep a plain [int array]
   per group instead of stepping boxed [Aggregate.state]s. *)
type int_agg = ICount | ISum of int  (* ISum carries the column index *)

let int_agg_plan schema (aggs : Aggregate.t list) =
  let one (a : Aggregate.t) =
    match a.Aggregate.func, a.Aggregate.arg with
    | Aggregate.Count_star, None -> Some ICount
    | Aggregate.Count, Some (Expr.Col _) -> Some ICount
    | Aggregate.Sum, Some (Expr.Col c)
      when Expr.type_of (Expr.Col c) = Datatype.Int ->
      Some (ISum (Expr.resolve_column schema c))
    | _ -> None
  in
  let ks = List.filter_map one aggs in
  if List.length ks = List.length aggs then Some (Array.of_list ks) else None

(* The fast-path kernels, shared by the serial and the parallel hash group
   (closure-free per row).  [int_upgrade] rebuilds generic states from a
   cell that absorbed >= 1 rows. *)
let int_row_fits ia tup =
  let n = Array.length ia in
  let rec go j =
    j >= n
    || (match Array.unsafe_get ia j with
       | ICount -> true
       | ISum idx -> (
         match Array.unsafe_get tup idx with Value.Int _ -> true | _ -> false))
       && go (j + 1)
  in
  go 0

let int_apply ia acc tup =
  for j = 0 to Array.length ia - 1 do
    match Array.unsafe_get ia j with
    | ICount -> Array.unsafe_set acc j (Array.unsafe_get acc j + 1)
    | ISum idx -> (
      match Array.unsafe_get tup idx with
      | Value.Int x -> Array.unsafe_set acc j (Array.unsafe_get acc j + x)
      | _ -> assert false)
  done

let int_upgrade ia (aggs : Aggregate.t list) acc =
  Array.of_list
    (List.mapi
       (fun j (_ : Aggregate.t) ->
         match ia.(j) with
         | ICount -> Aggregate.count_state acc.(j)
         | ISum _ -> Aggregate.sum_state (Value.Int acc.(j)))
       aggs)

let step_states states fns tup =
  List.map2 (fun st f -> Aggregate.step st (f tup)) states fns

let finish_group key states = Tuple.concat key (Array.of_list (List.map Aggregate.finish states))

(* ---- hash-join building blocks shared by the serial and parallel paths ---- *)

let build_hash_table build_keys build_rows =
  let table = TH.create 1024 in
  List.iter
    (fun bt ->
      let k = Tuple.project_arr bt build_keys in
      TH.replace table k (bt :: Option.value ~default:[] (TH.find_opt table k)))
    build_rows;
  table

let probe_hits table probe_keys pt =
  match TH.find_opt table (Tuple.project_arr pt probe_keys) with
  | None -> []
  | Some bts -> bts

let grace_partitions ctx build_pages =
  let work_mem = Exec_ctx.work_mem ctx in
  min 64 (max 2 ((build_pages + work_mem - 2) / (work_mem - 1)))

let part_hash nparts keys_idx t =
  (Tuple_key.hash (Tuple.project_arr t keys_idx) land max_int) mod nparts

(* Join each spilled partition pair in memory; returns all result tuples in
   probe order within each partition (partitions in index order). *)
let grace_join ctx ~nparts ~build_parts ~probe_parts ~build_keys ~probe_keys
    ~keep ~emit =
  let results = ref [] in
  for p = 0 to nparts - 1 do
    let build_rows = List.of_seq (Heap_file.to_seq build_parts.(p)) in
    let table = build_hash_table build_keys build_rows in
    let probe_seq = ref (Heap_file.to_seq probe_parts.(p)) in
    let rec drain () =
      match !probe_seq () with
      | Seq.Nil -> ()
      | Seq.Cons (pt, rest) ->
        probe_seq := rest;
        List.iter
          (fun bt ->
            let out = emit pt bt in
            if keep out then results := out :: !results)
          (probe_hits table probe_keys pt);
        drain ()
    in
    drain ()
  done;
  Array.iter (fun h -> Exec_ctx.drop ctx h) build_parts;
  Array.iter (fun h -> Exec_ctx.drop ctx h) probe_parts;
  List.rev !results

(* One batch from [n] output rows collected in reverse. *)
let batch_of_rev schema n rev =
  let arr = Array.make n [||] in
  List.iteri (fun i t -> arr.(n - 1 - i) <- t) rev;
  Batch.of_rows schema arr

(* A row cursor over a batch stream: [next] hands out one row at a time and
   pulls the next batch only when the current one is used up, so an
   operator walking its input row by row demands batches exactly when it
   reaches their first row. *)
let cursor (bit : Biter.t) =
  let rows = ref [||] and pos = ref 0 in
  let rec next () =
    if !pos < Array.length !rows then begin
      let t = (!rows).(!pos) in
      incr pos;
      Some t
    end
    else
      match bit.Biter.next_batch () with
      | None -> None
      | Some b ->
        rows := Batch.to_rows b;
        pos := 0;
        next ()
  in
  next

(* Nested-loop output in batches of at most [Batch.default_rows]: each
   driver row from [next_driver] meets, in order, the rows [partners d]
   returns, and [pair d p] is emitted when [keep] accepts it.  The loop
   state carries over between calls, so no batch grows past the cap and a
   consumer that stops pulling stops the loops. *)
let nl_batches schema ~next_driver ~partners ~pair ~keep =
  let driver = ref [||] and parts = ref [||] and pos = ref 0 in
  let finished = ref false in
  let rec fill buf n =
    if n = Batch.default_rows then n
    else if !pos < Array.length !parts then begin
      let o = pair !driver (!parts).(!pos) in
      incr pos;
      if keep o then begin
        buf.(n) <- o;
        fill buf (n + 1)
      end
      else fill buf n
    end
    else
      match next_driver () with
      | None ->
        finished := true;
        n
      | Some d ->
        driver := d;
        parts := partners d;
        pos := 0;
        fill buf n
  in
  fun () ->
    if !finished then None
    else
      let buf = Array.make Batch.default_rows [||] in
      let n = fill buf 0 in
      if n = 0 then None else Some (Batch.of_sub schema buf n)

(* Statement-limit polling (deadline / cancellation), applied to every
   operator a guarded statement opens.  Wrapping each node — not just the
   root — keeps pipeline breakers responsive: the scan feeding a big sort or
   group polls while the breaker is still absorbing input.  The check runs
   once per batch, the natural boundary. *)
let guard_biter ctx (bit : Biter.t) =
  let next_batch () =
    Exec_ctx.check ctx;
    bit.Biter.next_batch ()
  in
  { bit with Biter.next_batch }

(* Open a plan node under a profile node, attributing wall time and page IO
   spent during the open itself (blocking operators — hash build, sort,
   group — drain their inputs here, before the first pull).  Records partial
   open stats even when the open raises, so aborted statements keep the work
   done so far. *)
let profiled_open ctx prof plan raw_open =
  let st = Exec_ctx.storage ctx in
  let node = Profile.enter prof (Physical.op_name plan) in
  let t0 = Unix.gettimeofday () in
  let before = Storage.io_snapshot st in
  let record () =
    let io = Storage.io_since st before in
    node.Profile.open_ms <- (Unix.gettimeofday () -. t0) *. 1000.;
    node.Profile.open_reads <- io.Buffer_pool.reads;
    node.Profile.open_writes <- io.Buffer_pool.writes;
    node.Profile.open_hits <- io.Buffer_pool.hits
  in
  match raw_open () with
  | v ->
    record ();
    Profile.leave prof;
    (node, v)
  | exception e ->
    record ();
    Profile.leave prof;
    raise e

(* Attribute page IO incurred during each pull to a profile node (inclusive
   of the subtree, like [Profile.wrap_biter]'s wall time). *)
let io_biter ctx (node : Profile.node) (bit : Biter.t) =
  let st = Exec_ctx.storage ctx in
  let next_batch () =
    let before = Storage.io_snapshot st in
    let r = bit.Biter.next_batch () in
    let io = Storage.io_since st before in
    node.Profile.reads <- node.Profile.reads + io.Buffer_pool.reads;
    node.Profile.writes <- node.Profile.writes + io.Buffer_pool.writes;
    node.Profile.hits <- node.Profile.hits + io.Buffer_pool.hits;
    r
  in
  { bit with Biter.next_batch }

(* ---- exchange segment compilation ----

   A parallel segment is the scan spine the morsel workers evaluate
   independently: heap scan -> filters -> projections -> hash-join probes.
   It compiles to one shared, domain-safe transform (the closures capture
   only immutable schemas, column indices and read-only hash tables;
   batches are immutable records), applied by each worker to the batches
   its claimed page ranges produce. *)

type segment = {
  seg_heap : Heap_file.t;
  seg_scan_schema : Schema.t;
  seg_schema : Schema.t;  (* output schema of the transform *)
  seg_fn : Batch.t -> Batch.t option;  (* [None] = morsel filtered away *)
}

exception Unsupported_segment

(* Serial and parallel scans must agree on morsel boundaries: morsel [m]
   covers pages [m*ppb, (m+1)*ppb), exactly the page ranges
   [scan_batches] walks. *)
let morsel_geometry heap =
  let npages = Heap_file.npages heap in
  let cap = Heap_file.page_capacity heap in
  let ppb = max 1 (Batch.default_rows / cap) in
  let n_morsels = if npages = 0 then 0 else ((npages + ppb - 1) / ppb) in
  (npages, ppb, n_morsels)

(* Pre-register [worker-<i>] profile nodes under the node currently being
   opened (the exchange), returning the callback that fills them with the
   team's counters once the workers join. *)
let worker_profile_nodes ctx ~dop =
  match Exec_ctx.profiler ctx with
  | None -> None
  | Some prof ->
    let dop = Exchange.clamp_dop dop in
    let nodes =
      Array.init dop (fun i ->
          let n = Profile.enter prof (Printf.sprintf "worker-%d" i) in
          Profile.leave prof;
          n)
    in
    Some
      (fun (stats : Exchange.wstats array) ->
        Array.iteri
          (fun i (ws : Exchange.wstats) ->
            if i < Array.length nodes then begin
              let n = nodes.(i) in
              n.Profile.rows_out <- ws.Exchange.wrows;
              n.Profile.batches <- ws.Exchange.wbatches;
              n.Profile.ms <- ws.Exchange.wms;
              n.Profile.reads <- ws.Exchange.wio.Buffer_pool.reads;
              n.Profile.writes <- ws.Exchange.wio.Buffer_pool.writes;
              n.Profile.hits <- ws.Exchange.wio.Buffer_pool.hits
            end)
          stats)

let rec open_batch ctx plan : Biter.t =
  let bit =
    match Exec_ctx.profiler ctx with
    | None -> open_batch_raw ctx plan
    | Some prof ->
      let node, bit =
        profiled_open ctx prof plan (fun () -> open_batch_raw ctx plan)
      in
      io_biter ctx node (Profile.wrap_biter node bit)
  in
  if Exec_ctx.guarded ctx then guard_biter ctx bit else bit

and open_batch_raw ctx plan : Biter.t =
  let cat = Exec_ctx.catalog ctx in
  match plan with
  | Physical.Seq_scan s ->
    let tbl = Catalog.table_exn cat s.table in
    let schema = Schema.rename_qualifier tbl.Catalog.tschema s.alias in
    let bit = scan_batches schema tbl.Catalog.heap in
    if s.filter = [] then bit
    else batch_filter (compile_batch_preds schema s.filter) bit
  | Physical.Index_scan s ->
    let tbl = Catalog.table_exn cat s.table in
    let idx = index_exn tbl s.column in
    let schema = Schema.rename_qualifier tbl.Catalog.tschema s.alias in
    let rids = ref (Btree.search_range idx ?lo:s.lo ?hi:s.hi ()) in
    (* Reused across batches; see the ownership rule in batch.mli. *)
    let buf = Array.make Batch.default_rows [||] in
    let next_batch () =
      if !rids = [] then None
      else begin
        let n = ref 0 in
        let rec fill () =
          if !n < Batch.default_rows then
            match !rids with
            | [] -> ()
            | rid :: rest ->
              buf.(!n) <- Heap_file.get tbl.Catalog.heap rid;
              incr n;
              rids := rest;
              fill ()
        in
        fill ();
        Some (Batch.of_sub schema buf !n)
      end
    in
    let bit = { Biter.schema; next_batch; close = (fun () -> rids := []) } in
    if s.filter = [] then bit
    else batch_filter (compile_batch_preds schema s.filter) bit
  | Physical.Filter f ->
    let bit = open_batch ctx f.input in
    batch_filter (compile_batch_preds bit.Biter.schema f.pred) bit
  | Physical.Project p ->
    let bit = open_batch ctx p.input in
    let fns =
      Array.of_list (List.map (fun (e, _) -> Expr.compile bit.Biter.schema e) p.cols)
    in
    let out_schema = Schema.of_columns (List.map snd p.cols) in
    let project tup = Array.map (fun f -> f tup) fns in
    let next_batch () =
      Option.map (Batch.map out_schema project) (bit.Biter.next_batch ())
    in
    { Biter.schema = out_schema; next_batch; close = bit.Biter.close }
  | Physical.Materialize m ->
    let bit = open_batch ctx m.input in
    let heap = Exec_ctx.temp ctx bit.Biter.schema in
    Biter.iter_rows (fun t -> ignore (Heap_file.append heap t)) bit;
    let out = scan_batches bit.Biter.schema heap in
    {
      out with
      Biter.close =
        (fun () ->
          out.Biter.close ();
          Exec_ctx.drop ctx heap);
    }
  | Physical.Sort s ->
    let bit = open_batch ctx s.input in
    Xsort.sort_batches ctx
      ~compare:(Xsort.by_columns_dir bit.Biter.schema s.cols ~desc:s.desc)
      bit
  | Physical.Limit l ->
    let bit = open_batch ctx l.input in
    let remaining = ref l.count in
    let closed = ref false in
    let close_input () =
      if not !closed then begin
        closed := true;
        bit.Biter.close ()
      end
    in
    let next_batch () =
      if !remaining <= 0 then begin
        close_input ();
        None
      end
      else
        match bit.Biter.next_batch () with
        | None ->
          close_input ();
          None
        | Some b ->
          let b = Batch.take !remaining b in
          remaining := !remaining - Batch.live b;
          if !remaining <= 0 then close_input ();
          Some b
    in
    { Biter.schema = bit.Biter.schema; next_batch; close = close_input }
  | Physical.Hash_join j ->
    batch_hash_join ctx ~left:j.left ~right:j.right ~keys:j.keys ~cond:j.cond
      ~build_side:j.build_side
  | Physical.Hash_group g -> (
    (* Parallel partial aggregation: when the group sits on an exchange
       whose segment the workers can run, fuse scan + partials into the
       workers and merge here.  Otherwise the exchange still parallelizes
       the scan and this group consumes the resequenced stream serially. *)
    match g.Physical.input with
    | Physical.Exchange e
      when Exchange.parallel_group_ok g.Physical.aggs
           && Exchange.segment_ok e.input -> (
      match open_parallel_group ctx g ~dop:e.dop e.input with
      | bit -> bit
      | exception Unsupported_segment -> batch_hash_group ctx g)
    | _ -> batch_hash_group ctx g)
  | Physical.Exchange e -> open_exchange ctx ~dop:e.dop e.input
  | Physical.Repartition r ->
    (* Only meaningful as a build-side marker inside an exchange segment;
       anywhere else it is a transparent pass-through. *)
    open_batch ctx r.input
  | Physical.Block_nl_join j -> batch_bnl_join ctx j.left j.right j.cond
  | Physical.Index_nl_join j ->
    batch_index_nl_join ctx ~left:j.left ~alias:j.alias ~table:j.table
      ~column:j.column ~outer_key:j.outer_key ~cond:j.cond
  | Physical.Merge_join j ->
    batch_merge_join ctx ~left:j.left ~right:j.right ~keys:j.keys ~cond:j.cond
  | Physical.Sort_group g -> batch_sort_group ctx g

(* Batches straight off heap pages: one buffer-pool touch per page, whole
   pages per batch, zero-copy — each batch is a view of the heap's backing
   row array (see the ownership rule in batch.mli). *)
and scan_batches schema heap : Biter.t =
  let npages = Heap_file.npages heap in
  let cap = Heap_file.page_capacity heap in
  let pages_per_batch = max 1 (Batch.default_rows / cap) in
  let next_page = ref 0 in
  let next_batch () =
    if !next_page >= npages then None
    else begin
      let p0 = !next_page in
      let np = min pages_per_batch (npages - p0) in
      let rows, lo, len = Heap_file.scan_segment heap ~page:p0 ~npages:np in
      next_page := p0 + np;
      Some (Batch.of_segment schema rows ~lo ~len)
    end
  in
  { Biter.schema; next_batch; close = (fun () -> next_page := npages) }

and batch_filter kernels (bit : Biter.t) : Biter.t =
  let rec next_batch () =
    match bit.Biter.next_batch () with
    | None -> None
    | Some b ->
      let b = List.fold_left (fun b k -> k b) b kernels in
      if Batch.is_empty b then next_batch () else Some b
  in
  { bit with Biter.next_batch }

and batch_hash_join ctx ~left ~right ~keys ~cond ~build_side : Biter.t =
  let lbit = open_batch ctx left in
  let rbit = open_batch ctx right in
  let out_schema = Schema.append lbit.Biter.schema rbit.Biter.schema in
  let keep = compile_preds out_schema cond in
  let lkeys = resolve_all lbit.Biter.schema (List.map fst keys) in
  let rkeys = resolve_all rbit.Biter.schema (List.map snd keys) in
  let build_bit, probe_bit, build_keys, probe_keys, emit =
    match build_side with
    | `Right -> (rbit, lbit, rkeys, lkeys, fun probe build -> Tuple.concat probe build)
    | `Left -> (lbit, rbit, lkeys, rkeys, fun probe build -> Tuple.concat build probe)
  in
  let build_rows = Biter.to_list build_bit in
  let build_schema = build_bit.Biter.schema in
  let build_pages =
    Page.pages_for ~rows:(List.length build_rows)
      ~row_bytes:(Schema.byte_width build_schema)
  in
  if build_pages <= Exec_ctx.work_mem ctx then begin
    (* In-memory build; probe batch-at-a-time, emitting one output batch per
       probe batch with at least one match. *)
    let table = build_hash_table build_keys build_rows in
    let rec next_batch () =
      match probe_bit.Biter.next_batch () with
      | None -> None
      | Some pb ->
        let out = ref [] in
        let n = ref 0 in
        Batch.iter
          (fun pt ->
            List.iter
              (fun bt ->
                let o = emit pt bt in
                if keep o then begin
                  out := o :: !out;
                  incr n
                end)
              (probe_hits table probe_keys pt))
          pb;
        if !n = 0 then next_batch () else Some (batch_of_rev out_schema !n !out)
    in
    { Biter.schema = out_schema; next_batch; close = probe_bit.Biter.close }
  end
  else begin
    (* Grace hash join: partition both sides to temp files, then join each
       partition pair in memory. *)
    let nparts = grace_partitions ctx build_pages in
    let build_parts =
      Array.init nparts (fun _ -> Exec_ctx.temp ctx build_schema)
    in
    List.iter
      (fun bt ->
        ignore (Heap_file.append build_parts.(part_hash nparts build_keys bt) bt))
      build_rows;
    let probe_schema = probe_bit.Biter.schema in
    let probe_parts =
      Array.init nparts (fun _ -> Exec_ctx.temp ctx probe_schema)
    in
    Biter.iter_rows
      (fun pt ->
        ignore (Heap_file.append probe_parts.(part_hash nparts probe_keys pt) pt))
      probe_bit;
    let results =
      grace_join ctx ~nparts ~build_parts ~probe_parts ~build_keys
        ~probe_keys ~keep ~emit
    in
    Biter.of_rows out_schema (Array.of_list results)
  end

(* Block nested-loop join: buffer (work_mem - 1) pages of outer tuples, then
   rescan the inner once per block.  Outer batches are cut at the block
   boundary; the rows past it open the next block.  The inner must be
   rescannable; a [Materialize] inner is spooled once and re-read per
   block.  Output order: per inner row, the block's rows in order, in
   batches of at most [Batch.default_rows] ([nl_batches]). *)
and batch_bnl_join ctx left right cond : Biter.t =
  let cat = Exec_ctx.catalog ctx in
  let lbit = open_batch ctx left in
  let rschema = Physical.schema cat right in
  let out_schema = Schema.append lbit.Biter.schema rschema in
  let keep = compile_preds out_schema cond in
  let block_rows =
    let cap = Page.capacity ~row_bytes:(Schema.byte_width lbit.Biter.schema) in
    max 1 ((Exec_ctx.work_mem ctx - 1) * cap)
  in
  (* Rescannable inner: spool a Materialize once; otherwise reopen the scan.
     Reopens happen mid-pull, when no profile parent is on the stack, so
     profiling is suspended around them. *)
  let spooled = ref None in
  let reopen_right () =
    let saved = Exec_ctx.profiler ctx in
    Exec_ctx.set_profiler ctx None;
    Fun.protect
      ~finally:(fun () -> Exec_ctx.set_profiler ctx saved)
      (fun () ->
        match right with
        | Physical.Materialize m ->
          let heap =
            match !spooled with
            | Some heap -> heap
            | None ->
              let bit = open_batch ctx m.input in
              let heap = Exec_ctx.temp ctx bit.Biter.schema in
              Biter.iter_rows (fun t -> ignore (Heap_file.append heap t)) bit;
              spooled := Some heap;
              heap
          in
          scan_batches rschema heap
        | Physical.Seq_scan _ | Physical.Index_scan _ -> open_batch ctx right
        | _ ->
          invalid_arg
            "Executor: BNL inner must be a scan or Materialize (planner bug)")
  in
  let carry = ref [] in  (* outer rows past the last block, in order *)
  let outer_done = ref false in
  let load_block () =
    let buf = ref [] and n = ref 0 in
    let take rows =
      let rec go = function
        | t :: rest when !n < block_rows ->
          buf := t :: !buf;
          incr n;
          go rest
        | rest -> rest
      in
      carry := go rows
    in
    take !carry;
    while !n < block_rows && not !outer_done do
      match lbit.Biter.next_batch () with
      | None -> outer_done := true
      | Some b -> take (Batch.to_list b)
    done;
    Array.of_list (List.rev !buf)
  in
  let inner : Biter.t option ref = ref None in
  let close_inner () =
    Option.iter (fun (it : Biter.t) -> it.Biter.close ()) !inner;
    inner := None
  in
  (* Drivers are the inner rows, block by block; each meets the block. *)
  let block = ref [||] and next_inner = ref (fun () -> None) in
  let rec next_driver () =
    match !next_inner () with
    | Some rt -> Some rt
    | None ->
      close_inner ();
      block := load_block ();
      if Array.length !block = 0 then None
      else begin
        let it = reopen_right () in
        inner := Some it;
        next_inner := cursor it;
        next_driver ()
      end
  in
  let next_batch =
    nl_batches out_schema ~next_driver
      ~partners:(fun _ -> !block)
      ~pair:(fun rt lt -> Tuple.concat lt rt)
      ~keep
  in
  let close () =
    lbit.Biter.close ();
    close_inner ();
    Option.iter (Exec_ctx.drop ctx) !spooled
  in
  { Biter.schema = out_schema; next_batch; close }

(* Index nested-loop join: one [Btree.search_eq] probe per outer row,
   fetching the matches in rid order. *)
and batch_index_nl_join ctx ~left ~alias ~table ~column ~outer_key ~cond :
    Biter.t =
  let cat = Exec_ctx.catalog ctx in
  let lbit = open_batch ctx left in
  let tbl = Catalog.table_exn cat table in
  let idx = index_exn tbl column in
  let rschema = Schema.rename_qualifier tbl.Catalog.tschema alias in
  let out_schema = Schema.append lbit.Biter.schema rschema in
  let keep = compile_preds out_schema cond in
  let key_idx = Expr.resolve_column lbit.Biter.schema outer_key in
  let next_batch =
    nl_batches out_schema ~next_driver:(cursor lbit)
      ~partners:(fun lt ->
        Array.of_list
          (List.map (Heap_file.get tbl.Catalog.heap)
             (Btree.search_eq idx (Tuple.get lt key_idx))))
      ~pair:Tuple.concat ~keep
  in
  { Biter.schema = out_schema; next_batch; close = lbit.Biter.close }

(* Merge join over inputs sorted on [keys]: each left row meets the group of
   right rows with its key.  Inputs are walked row by row through cursors;
   the join stops pulling as soon as either side runs out. *)
and batch_merge_join ctx ~left ~right ~keys ~cond : Biter.t =
  let lbit = open_batch ctx left in
  let rbit = open_batch ctx right in
  let out_schema = Schema.append lbit.Biter.schema rbit.Biter.schema in
  let keep = compile_preds out_schema cond in
  let lidx = resolve_all lbit.Biter.schema (List.map fst keys) in
  let ridx = resolve_all rbit.Biter.schema (List.map snd keys) in
  let lnext = cursor lbit and rnext = cursor rbit in
  let lt = ref (lnext ()) and rt = ref (rnext ()) in
  (* The current right group: its key and rows. *)
  let group = ref None in
  let collect_group rk =
    let acc = ref [] in
    let rec loop () =
      match !rt with
      | Some r when compare_keys (Tuple.project_arr r ridx) rk = 0 ->
        acc := r :: !acc;
        rt := rnext ();
        loop ()
      | _ -> ()
    in
    loop ();
    group := Some (rk, Array.of_list (List.rev !acc))
  in
  (* The next left row with a right group; the group is then [!group]. *)
  let rec next_driver () =
    match !lt with
    | None -> None
    | Some l -> (
      let lk = Tuple.project_arr l lidx in
      match !group with
      | Some (gk, _) when compare_keys lk gk = 0 ->
        lt := lnext ();
        Some l
      | _ -> (
        match !rt with
        | None -> None
        | Some r ->
          let rk = Tuple.project_arr r ridx in
          let c = compare_keys lk rk in
          if c < 0 then lt := lnext ()
          else if c > 0 then rt := rnext ()
          else collect_group rk;
          next_driver ()))
  in
  let next_batch =
    nl_batches out_schema ~next_driver
      ~partners:(fun _ -> match !group with Some (_, rows) -> rows | None -> [||])
      ~pair:Tuple.concat ~keep
  in
  let close () =
    lbit.Biter.close ();
    rbit.Biter.close ()
  in
  { Biter.schema = out_schema; next_batch; close }

(* Sort-group over input sorted on the grouping keys: a group is finished
   when the first row of the next one arrives.  Each input batch yields the
   groups it finished. *)
and batch_sort_group ctx (g : Physical.group) : Biter.t =
  let cat = Exec_ctx.catalog ctx in
  let bit = open_batch ctx g.Physical.input in
  let in_schema = bit.Biter.schema in
  let out_schema = Physical.schema cat (Physical.Sort_group g) in
  let key_idx = resolve_all in_schema g.Physical.keys in
  let fns = agg_arg_fns in_schema g.Physical.aggs in
  let current = ref None and finished = ref false in
  let rec next_batch () =
    if !finished then None
    else
      match bit.Biter.next_batch () with
      | None ->
        finished := true;
        Option.map
          (fun (k, states) -> Batch.of_rows out_schema [| finish_group k states |])
          !current
      | Some b ->
        let out = ref [] and n = ref 0 in
        Batch.iter
          (fun tup ->
            let k = Tuple.project_arr tup key_idx in
            match !current with
            | Some (gk, states) when compare_keys k gk = 0 ->
              current := Some (gk, step_states states fns tup)
            | prev ->
              Option.iter
                (fun (gk, states) ->
                  out := finish_group gk states :: !out;
                  incr n)
                prev;
              current := Some (k, step_states (init_states g.Physical.aggs) fns tup))
          b;
        if !n = 0 then next_batch () else Some (batch_of_rev out_schema !n !out)
  in
  let result = { Biter.schema = out_schema; next_batch; close = bit.Biter.close } in
  if g.Physical.having = [] then result
  else batch_filter (compile_batch_preds out_schema g.Physical.having) result

and batch_hash_group ctx (g : Physical.group) : Biter.t =
  let cat = Exec_ctx.catalog ctx in
  let bit = open_batch ctx g.Physical.input in
  let in_schema = bit.Biter.schema in
  let out_schema = Physical.schema cat (Physical.Hash_group g) in
  let key_idx = resolve_all in_schema g.Physical.keys in
  let fns = agg_arg_fns in_schema g.Physical.aggs in
  let rows =
    match key_idx with
    | [| ki |] ->
      (* Vectorized single-key grouping: hash the key value itself (no
         per-row key-tuple allocation) and mutate each group's cells in
         place — one table probe per row instead of find + replace.
         Grouping semantics ([Value.compare]-based equality) and first-seen
         output order match the generic path exactly. *)
      let order = ref [] in
      let fns_arr = Array.of_list fns in
      let naggs = Array.length fns_arr in
      let step_gen st tup =
        for j = 0 to naggs - 1 do
          Array.unsafe_set st j
            (Aggregate.step (Array.unsafe_get st j)
               ((Array.unsafe_get fns_arr j) tup))
        done
      in
      (match int_agg_plan in_schema g.Physical.aggs with
       | Some ia ->
         (* All aggregates are int COUNT/SUM: a group's cell is a plain
            [int array] — the hot loop allocates nothing.  A non-Int SUM
            argument (mis-typed data; [Value.add] would promote the sum to
            Float) upgrades just that group to generic states rebuilt from
            its accumulators, so results stay identical either way. *)
         let table = VH.create 256 in
         Biter.iter_rows
           (fun tup ->
             let k = Array.unsafe_get tup ki in
             match VH.find_opt table k with
             | Some cell -> (
               match !cell with
               | `Fast acc ->
                 if int_row_fits ia tup then int_apply ia acc tup
                 else begin
                   let st = int_upgrade ia g.Physical.aggs acc in
                   step_gen st tup;
                   cell := `Slow st
                 end
               | `Slow st -> step_gen st tup)
             | None ->
               let cell =
                 if int_row_fits ia tup then begin
                   let acc = Array.make naggs 0 in
                   int_apply ia acc tup;
                   `Fast acc
                 end
                 else begin
                   let st = Array.of_list (init_states g.Physical.aggs) in
                   step_gen st tup;
                   `Slow st
                 end
               in
               VH.add table k (ref cell);
               order := k :: !order)
           bit;
         List.rev_map
           (fun k ->
             match !(VH.find table k) with
             | `Fast acc ->
               Tuple.concat [| k |]
                 (Array.init naggs (fun j -> Value.Int (Array.unsafe_get acc j)))
             | `Slow st -> finish_group [| k |] (Array.to_list st))
           !order
       | None ->
         let table = VH.create 256 in
         Biter.iter_rows
           (fun tup ->
             let k = Array.unsafe_get tup ki in
             let cell =
               match VH.find_opt table k with
               | Some c -> c
               | None ->
                 let c = Array.of_list (init_states g.Physical.aggs) in
                 VH.add table k c;
                 order := k :: !order;
                 c
             in
             step_gen cell tup)
           bit;
         List.rev_map
           (fun k -> finish_group [| k |] (Array.to_list (VH.find table k)))
           !order)
    | _ ->
      let table = TH.create 256 in
      let order = ref [] in
      Biter.iter_rows
        (fun tup ->
          let k = Tuple.project_arr tup key_idx in
          let states =
            match TH.find_opt table k with
            | Some s -> s
            | None ->
              order := k :: !order;
              init_states g.Physical.aggs
          in
          TH.replace table k (step_states states fns tup))
        bit;
      List.rev_map (fun k -> finish_group k (TH.find table k)) !order
  in
  let result = Biter.of_rows out_schema (Array.of_list rows) in
  if g.Physical.having = [] then result
  else batch_filter (compile_batch_preds out_schema g.Physical.having) result

(* ==== morsel-driven parallel path (Physical.Exchange) ==== *)

and compile_segment ctx plan : segment =
  let cat = Exec_ctx.catalog ctx in
  match plan with
  | Physical.Seq_scan s ->
    let tbl = Catalog.table_exn cat s.table in
    let schema = Schema.rename_qualifier tbl.Catalog.tschema s.alias in
    let kernels =
      if s.filter = [] then [] else compile_batch_preds schema s.filter
    in
    let fn b =
      let b = List.fold_left (fun b k -> k b) b kernels in
      if Batch.is_empty b then None else Some b
    in
    { seg_heap = tbl.Catalog.heap; seg_scan_schema = schema;
      seg_schema = schema; seg_fn = fn }
  | Physical.Filter f ->
    let seg = compile_segment ctx f.input in
    let kernels = compile_batch_preds seg.seg_schema f.pred in
    let fn b =
      match seg.seg_fn b with
      | None -> None
      | Some b ->
        let b = List.fold_left (fun b k -> k b) b kernels in
        if Batch.is_empty b then None else Some b
    in
    { seg with seg_fn = fn }
  | Physical.Project p ->
    let seg = compile_segment ctx p.input in
    let fns =
      Array.of_list
        (List.map (fun (e, _) -> Expr.compile seg.seg_schema e) p.cols)
    in
    let out_schema = Schema.of_columns (List.map snd p.cols) in
    let project tup = Array.map (fun f -> f tup) fns in
    let fn b = Option.map (Batch.map out_schema project) (seg.seg_fn b) in
    { seg with seg_schema = out_schema; seg_fn = fn }
  | Physical.Hash_join j ->
    let build_plan, probe_plan =
      match j.build_side with
      | `Right -> (j.right, j.left)
      | `Left -> (j.left, j.right)
    in
    let nparts, build_inner =
      match build_plan with
      | Physical.Repartition r -> (Exchange.clamp_dop r.dop, r.input)
      | p -> (1, p)
    in
    let seg = compile_segment ctx probe_plan in
    (* The build side is evaluated once, serially, on the consuming domain
       (it may be an arbitrary plan). *)
    let build_bit = open_batch ctx build_inner in
    let build_schema = build_bit.Biter.schema in
    let build_rows = Biter.to_list build_bit in
    let build_pages =
      Page.pages_for ~rows:(List.length build_rows)
        ~row_bytes:(Schema.byte_width build_schema)
    in
    (* A spilling (grace) build has no parallel form with identical output
       order; the caller falls back to the serial plan. *)
    if build_pages > Exec_ctx.work_mem ctx then raise Unsupported_segment;
    let probe_schema = seg.seg_schema in
    let out_schema, emit, build_keys, probe_keys =
      match j.build_side with
      | `Right ->
        ( Schema.append probe_schema build_schema,
          (fun pt bt -> Tuple.concat pt bt),
          resolve_all build_schema (List.map snd j.keys),
          resolve_all probe_schema (List.map fst j.keys) )
      | `Left ->
        ( Schema.append build_schema probe_schema,
          (fun pt bt -> Tuple.concat bt pt),
          resolve_all build_schema (List.map fst j.keys),
          resolve_all probe_schema (List.map snd j.keys) )
    in
    let keep = compile_preds out_schema j.cond in
    let tables =
      if nparts = 1 then [| build_hash_table build_keys build_rows |]
      else begin
        (* Partitioned parallel build: a key's rows all hash to one
           partition and keep their input order there, so each slice's
           table reproduces the serial table's bucket lists exactly. *)
        let parts = Array.make nparts [] in
        List.iter
          (fun bt ->
            let p = part_hash nparts build_keys bt in
            parts.(p) <- bt :: parts.(p))
          build_rows;
        let parts = Array.map List.rev parts in
        let tabs = Array.map (fun _ -> TH.create 0) parts in
        let (_ : unit array * Exchange.wstats array) =
          Exchange.fold ~ctx ~dop:nparts ~n_morsels:nparts
            ~worker:(fun ~wid:_ ~stats:_ _wctx ~claim ->
              let rec loop () =
                match claim () with
                | None -> ()
                | Some p ->
                  tabs.(p) <- build_hash_table build_keys parts.(p);
                  loop ()
              in
              loop ())
            ()
        in
        tabs
      end
    in
    let lookup pt =
      let k = Tuple.project_arr pt probe_keys in
      let tbl =
        if nparts = 1 then tables.(0)
        else tables.((Tuple_key.hash k land max_int) mod nparts)
      in
      match TH.find_opt tbl k with None -> [] | Some bts -> bts
    in
    let fn b =
      match seg.seg_fn b with
      | None -> None
      | Some pb ->
        let out = ref [] in
        let n = ref 0 in
        Batch.iter
          (fun pt ->
            List.iter
              (fun bt ->
                let o = emit pt bt in
                if keep o then begin
                  out := o :: !out;
                  incr n
                end)
              (lookup pt))
          pb;
        if !n = 0 then None else Some (batch_of_rev out_schema !n !out)
    in
    { seg with seg_schema = out_schema; seg_fn = fn }
  | _ -> raise Unsupported_segment

(* Exchange as a streaming operator: workers run the segment morsel-wise,
   the consumer resequences.  Unsupported segments degrade to the serial
   plan (the exchange becomes a pass-through), keeping results correct for
   any plan shape the rewrite or the plan cache may hand us. *)
and open_exchange ctx ~dop input : Biter.t =
  if not (Exchange.segment_ok input) then open_batch ctx input
  else
    match compile_segment ctx input with
    | exception Unsupported_segment -> open_batch ctx input
    | seg ->
      let npages, ppb, n_morsels = morsel_geometry seg.seg_heap in
      let morsel ~wid:_ _wctx m =
        let p0 = m * ppb in
        let np = min ppb (npages - p0) in
        let rows, lo, len =
          Heap_file.scan_segment seg.seg_heap ~page:p0 ~npages:np
        in
        seg.seg_fn (Batch.of_segment seg.seg_scan_schema rows ~lo ~len)
      in
      let on_done = worker_profile_nodes ctx ~dop in
      Exchange.gather ~ctx ~dop ~schema:seg.seg_schema ~n_morsels ~morsel
        ?on_done ()

(* Hash group over an exchange: each worker folds its morsels into a
   private partial-aggregate table; the consumer merges the partials with
   [Aggregate.merge] (the same partial algebra the matview extents use)
   and orders groups by their first appearance in the serial stream, so
   output is byte-identical to the serial operator. *)
and open_parallel_group ctx (g : Physical.group) ~dop input : Biter.t =
  let cat = Exec_ctx.catalog ctx in
  let seg = compile_segment ctx input in
  let in_schema = seg.seg_schema in
  let out_schema = Physical.schema cat (Physical.Hash_group g) in
  let key_idx = resolve_all in_schema g.Physical.keys in
  let fns = agg_arg_fns in_schema g.Physical.aggs in
  let npages, ppb, n_morsels = morsel_geometry seg.seg_heap in
  (* The exchange is fused into this operator, but observability should
     still show it: mirror it as a profile child with per-worker nodes. *)
  let xnode, on_done =
    match Exec_ctx.profiler ctx with
    | None -> (None, None)
    | Some prof ->
      let xn =
        Profile.enter prof (Physical.op_name (Physical.Exchange { input; dop }))
      in
      let fill = worker_profile_nodes ctx ~dop in
      Profile.leave prof;
      (Some xn, fill)
  in
  let scan_morsel m =
    let p0 = m * ppb in
    let np = min ppb (npages - p0) in
    let rows, lo, len = Heap_file.scan_segment seg.seg_heap ~page:p0 ~npages:np in
    seg.seg_fn (Batch.of_segment seg.seg_scan_schema rows ~lo ~len)
  in
  (* Worker partial tables record, per group, the aggregate partial plus
     the group's first (morsel, row position) — the row's rank in the
     serial stream — so ordering merged groups by the minimum (m, pos)
     reproduces the serial first-seen output order. *)
  let rows, wstats =
    match key_idx, int_agg_plan in_schema g.Physical.aggs with
    | [| ki |], Some ia ->
      (* Unboxed fast path, mirroring the serial single-int-key kernel:
         each group's partial is a plain [int array] until a mis-typed row
         upgrades it to generic states; partials merge by elementwise
         addition (or [Aggregate.merge] once upgraded). *)
      let fns_arr = Array.of_list fns in
      let naggs = Array.length fns_arr in
      let step_gen st tup =
        for j = 0 to naggs - 1 do
          Array.unsafe_set st j
            (Aggregate.step (Array.unsafe_get st j)
               ((Array.unsafe_get fns_arr j) tup))
        done
      in
      let worker ~wid:_ ~stats:(ws : Exchange.wstats) _wctx ~claim =
        let table = VH.create 256 in
        let rec loop () =
          match claim () with
          | None -> ()
          | Some m ->
            (match scan_morsel m with
             | None -> ()
             | Some b ->
               let pos = ref 0 in
               Batch.iter
                 (fun tup ->
                   let k = Array.unsafe_get tup ki in
                   (match VH.find_opt table k with
                    | Some (cell, _, _) -> (
                      match !cell with
                      | `Fast acc ->
                        if int_row_fits ia tup then int_apply ia acc tup
                        else begin
                          let st = int_upgrade ia g.Physical.aggs acc in
                          step_gen st tup;
                          cell := `Slow st
                        end
                      | `Slow st -> step_gen st tup)
                    | None ->
                      let cell =
                        if int_row_fits ia tup then begin
                          let acc = Array.make naggs 0 in
                          int_apply ia acc tup;
                          `Fast acc
                        end
                        else begin
                          let st = Array.of_list (init_states g.Physical.aggs) in
                          step_gen st tup;
                          `Slow st
                        end
                      in
                      VH.add table k (ref cell, m, !pos));
                   incr pos;
                   ws.Exchange.wrows <- ws.Exchange.wrows + 1)
                 b;
               ws.Exchange.wbatches <- ws.Exchange.wbatches + 1);
            loop ()
        in
        loop ();
        table
      in
      let tables, wstats =
        Exchange.fold ~ctx ~dop ~n_morsels ~worker ?on_done ()
      in
      let to_states = function
        | `Fast acc -> int_upgrade ia g.Physical.aggs acc
        | `Slow st -> st
      in
      let merged = VH.create 256 in
      Array.iter
        (fun t ->
          VH.iter
            (fun k (cell, m, p) ->
              match VH.find_opt merged k with
              | None -> VH.replace merged k (!cell, m, p)
              | Some (c0, m0, p0) ->
                (* Earlier-stream partial first, like the serial fold. *)
                let a, b, fm, fp =
                  if (m0, p0) <= (m, p) then (c0, !cell, m0, p0)
                  else (!cell, c0, m, p)
                in
                let c =
                  match a, b with
                  | `Fast x, `Fast y ->
                    `Fast (Array.init naggs (fun j -> x.(j) + y.(j)))
                  | _ ->
                    let sa = to_states a and sb = to_states b in
                    `Slow (Array.init naggs (fun j ->
                               Aggregate.merge sa.(j) sb.(j)))
                in
                VH.replace merged k (c, fm, fp))
            t)
        tables;
      let entries =
        List.sort
          (fun (_, _, m1, p1) (_, _, m2, p2) -> compare (m1, p1) (m2, p2))
          (VH.fold (fun k (c, m, p) acc -> (k, c, m, p) :: acc) merged [])
      in
      let rows =
        Array.of_list
          (List.map
             (fun (k, c, _, _) ->
               match c with
               | `Fast acc ->
                 Tuple.concat [| k |]
                   (Array.init naggs (fun j -> Value.Int acc.(j)))
               | `Slow st -> finish_group [| k |] (Array.to_list st))
             entries)
      in
      (rows, wstats)
    | _ ->
      let worker ~wid:_ ~stats:(ws : Exchange.wstats) _wctx ~claim =
        let table : (Aggregate.state list ref * int * int) TH.t =
          TH.create 256
        in
        let rec loop () =
          match claim () with
          | None -> ()
          | Some m ->
            (match scan_morsel m with
             | None -> ()
             | Some b ->
               let pos = ref 0 in
               Batch.iter
                 (fun tup ->
                   let k = Tuple.project_arr tup key_idx in
                   (match TH.find_opt table k with
                    | Some (states, _, _) ->
                      states := step_states !states fns tup
                    | None ->
                      TH.add table k
                        ( ref (step_states (init_states g.Physical.aggs) fns tup),
                          m, !pos ));
                   incr pos;
                   ws.Exchange.wrows <- ws.Exchange.wrows + 1)
                 b;
               ws.Exchange.wbatches <- ws.Exchange.wbatches + 1);
            loop ()
        in
        loop ();
        table
      in
      let tables, wstats =
        Exchange.fold ~ctx ~dop ~n_morsels ~worker ?on_done ()
      in
      let merged : (Aggregate.state list * int * int) TH.t = TH.create 256 in
      Array.iter
        (fun t ->
          TH.iter
            (fun k (states, m, p) ->
              match TH.find_opt merged k with
              | None -> TH.replace merged k (!states, m, p)
              | Some (states0, m0, p0) ->
                (* Merge earlier-stream partial first, so any
                   order-sensitive tie in [Aggregate.merge] resolves like
                   the serial fold. *)
                let a, b, fm, fp =
                  if (m0, p0) <= (m, p) then (states0, !states, m0, p0)
                  else (!states, states0, m, p)
                in
                TH.replace merged k (List.map2 Aggregate.merge a b, fm, fp))
            t)
        tables;
      let entries =
        List.sort
          (fun (_, _, m1, p1) (_, _, m2, p2) -> compare (m1, p1) (m2, p2))
          (TH.fold (fun k (states, m, p) acc -> (k, states, m, p) :: acc)
             merged [])
      in
      let rows =
        Array.of_list
          (List.map (fun (k, states, _, _) -> finish_group k states) entries)
      in
      (rows, wstats)
  in
  (match xnode with
   | Some xn ->
     Array.iter
       (fun (ws : Exchange.wstats) ->
         xn.Profile.rows_out <- xn.Profile.rows_out + ws.Exchange.wrows;
         xn.Profile.batches <- xn.Profile.batches + ws.Exchange.wbatches;
         xn.Profile.ms <- Float.max xn.Profile.ms ws.Exchange.wms;
         xn.Profile.reads <- xn.Profile.reads + ws.Exchange.wio.Buffer_pool.reads;
         xn.Profile.writes <- xn.Profile.writes + ws.Exchange.wio.Buffer_pool.writes;
         xn.Profile.hits <- xn.Profile.hits + ws.Exchange.wio.Buffer_pool.hits)
       wstats
   | None -> ());
  let result = Biter.of_rows out_schema rows in
  if g.Physical.having = [] then result
  else batch_filter (compile_batch_preds out_schema g.Physical.having) result

let run ctx plan =
  (* Temps must be released even when an operator raises mid-pipeline
     (e.g. a type error in [Expr.eval]); otherwise spilled sort runs and
     join partitions leak on every failed query. *)
  Fun.protect
    ~finally:(fun () -> Exec_ctx.cleanup ctx)
    (fun () ->
      if Exec_ctx.guarded ctx then Exec_ctx.check ctx;
      Biter.to_relation (open_batch ctx plan))

let run_measured ?(cold = true) ctx plan =
  let st = Exec_ctx.storage ctx in
  if cold then begin
    (* Cold benchmark path (single-threaded by contract): empty the pool and
       zero the global counters so [Storage.io_stats] reads as one run. *)
    Buffer_pool.clear (Storage.pool st);
    Storage.reset_io st
  end;
  (* Measurement itself is delta-based on the calling domain's own tally:
     warm-path runs ([~cold:false], e.g. [Service.execute]) never reset
     shared counters, so overlapping measurements on concurrent workers
     cannot misattribute each other's IO. *)
  let before = Storage.io_snapshot st in
  let rel = run ctx plan in
  (rel, Storage.io_since st before)

let run_profiled_result ?(cold = false) ctx plan =
  let prof = Profile.create () in
  Exec_ctx.set_profiler ctx (Some prof);
  Fun.protect
    ~finally:(fun () -> Exec_ctx.set_profiler ctx None)
    (fun () ->
      match run_measured ~cold ctx plan with
      | rel, io -> Ok (rel, io, prof)
      | exception e ->
        (* Keep the partial per-operator stats: a timed-out or cancelled
           statement's profile shows where the time went before it died. *)
        Profile.set_error prof (Printexc.to_string e);
        Error (e, prof))

let run_profiled ctx plan =
  match run_profiled_result ~cold:false ctx plan with
  | Ok (rel, _io, prof) -> (rel, prof)
  | Error (e, _prof) -> raise e
