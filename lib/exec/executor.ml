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

(* Unboxed accumulation for the common all-int aggregate shapes —
   COUNT star, COUNT(col) and SUM over an Int-typed column.  [int_agg_plan]
   returns one kernel descriptor per aggregate when every aggregate in the
   list qualifies, so a group can keep a plain [int array] instead of
   stepping boxed [Aggregate.state]s. *)
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

(* Closure-free per-row kernels of the unboxed path.  [int_upgrade] rebuilds
   generic states from a cell that absorbed >= 1 rows. *)
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

(* ---- the group kernel ----

   One group table serves the hash group; the sort group folds its one open
   group with the same cells.  A table is keyed by the single key value
   ([VH]: no per-row key tuple) or by the key tuple ([TH]).  A group's cell
   is a plain [int array] while every aggregate is an int COUNT/SUM and
   every row has fit; a row whose SUM argument is not an [Int] (mis-typed
   data; [Value.add] would promote the sum to Float) upgrades just that
   group to generic states rebuilt from its accumulators, so results are
   identical either way.  Output is in first-seen order of the input
   stream. *)

type cell =
  | Fresh  (* no row folded in yet *)
  | Ints of int array
  | States of Aggregate.state array

type group = { key : Tuple.t; mutable cell : cell }

(* How rows fold into a cell: the aggregates, their argument extractors,
   and the unboxed kernels when every aggregate qualifies. *)
type folder = {
  aggs : Aggregate.t list;
  fns : (Tuple.t -> Value.t option) array;
  ints : int_agg array option;
}

let folder schema aggs =
  let arg (a : Aggregate.t) =
    match a.Aggregate.arg with
    | None -> fun _ -> None
    | Some e ->
      let f = Expr.compile schema e in
      fun tup -> Some (f tup)
  in
  { aggs; fns = Array.of_list (List.map arg aggs); ints = int_agg_plan schema aggs }

let states f = function
  | Fresh ->
    Array.of_list (List.map (fun (a : Aggregate.t) -> Aggregate.init a.Aggregate.func) f.aggs)
  | Ints acc -> (
    match f.ints with Some ia -> int_upgrade ia f.aggs acc | None -> assert false)
  | States st -> st

let step_states f st tup =
  for j = 0 to Array.length st - 1 do
    Array.unsafe_set st j
      (Aggregate.step (Array.unsafe_get st j) ((Array.unsafe_get f.fns j) tup))
  done

(* Fold one row into a group. *)
let step f g tup =
  match g.cell, f.ints with
  | States st, _ -> step_states f st tup
  | Ints acc, Some ia when int_row_fits ia tup -> int_apply ia acc tup
  | Fresh, Some ia when int_row_fits ia tup ->
    let acc = Array.make (Array.length ia) 0 in
    int_apply ia acc tup;
    g.cell <- Ints acc
  | cell, _ ->
    let st = states f cell in
    step_states f st tup;
    g.cell <- States st

let finish_row f g =
  Tuple.concat g.key
    (match g.cell with
     | Ints acc -> Array.map (fun x -> Value.Int x) acc
     | cell -> Array.map Aggregate.finish (states f cell))

type index = One of int * group VH.t | Many of int array * group TH.t

type gtable = {
  folder : folder;
  index : index;
  mutable order : group list;  (* newest first *)
}

let gtable folder key_idx =
  let index =
    match key_idx with
    | [| ki |] -> One (ki, VH.create 256)
    | _ -> Many (key_idx, TH.create 256)
  in
  { folder; index; order = [] }

let fresh t key =
  let g = { key; cell = Fresh } in
  (match t.index with
   | One (_, h) -> VH.add h key.(0) g
   | Many (_, h) -> TH.add h key g);
  t.order <- g :: t.order;
  g

let add t tup =
  let g =
    match t.index with
    | One (ki, h) -> (
      let k = Array.unsafe_get tup ki in
      match VH.find_opt h k with Some g -> g | None -> fresh t [| k |])
    | Many (kidx, h) -> (
      let k = Tuple.project_arr tup kidx in
      match TH.find_opt h k with Some g -> g | None -> fresh t k)
  in
  step t.folder g tup

let emit t = Array.of_list (List.rev_map (finish_row t.folder) t.order)

(* ---- batch plumbing ---- *)

(* Apply filter kernels in order; [None] when no row survives. *)
let run_kernels kernels b =
  let b = List.fold_left (fun b k -> k b) b kernels in
  if Batch.is_empty b then None else Some b

let batch_filter kernels (bit : Biter.t) : Biter.t =
  let rec next_batch () =
    match bit.Biter.next_batch () with
    | None -> None
    | Some b -> (
      match run_kernels kernels b with None -> next_batch () | r -> r)
  in
  { bit with Biter.next_batch }

let with_having out_schema (g : Physical.group) bit =
  if g.Physical.having = [] then bit
  else batch_filter (compile_batch_preds out_schema g.Physical.having) bit

(* One batch from [n] output rows collected in reverse. *)
let batch_of_rev schema n rev =
  let arr = Array.make n [||] in
  List.iteri (fun i t -> arr.(n - 1 - i) <- t) rev;
  Batch.of_rows schema arr

(* A heap scan, one batch's worth of pages per batch: one buffer-pool touch
   per page, zero-copy — each batch is a view of the heap's backing row
   array (see the ownership rule in batch.mli). *)
let scan_batches schema heap : Biter.t =
  let ppb = max 1 (Batch.default_rows / Heap_file.page_capacity heap) in
  let npages = Heap_file.npages heap in
  let next = ref 0 in
  let next_batch () =
    if !next >= npages then None
    else begin
      let rows, lo, len = Heap_file.scan_segment heap ~page:!next ~npages:ppb in
      next := !next + ppb;
      Some (Batch.of_segment schema rows ~lo ~len)
    end
  in
  { Biter.schema; next_batch; close = (fun () -> next := npages) }

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

(* The output loop of every join: each driver row from [next_driver]
   meets, in order, the rows [partners d] returns, and [pair d p] is
   emitted when [keep] accepts it, in batches of at most
   [Batch.default_rows].  The loop state carries over between calls, so no
   batch grows past the cap and a consumer that stops pulling stops the
   loops.  The output array is reused across batches (the ownership rule
   in batch.mli): a fresh 1024-slot array per batch lives in the major
   heap, and every young output row stored into it would be promoted. *)
let nl_batches schema ~next_driver ~partners ~pair ~keep =
  let driver = ref [||] and parts = ref [] in
  let finished = ref false in
  let buf = Array.make Batch.default_rows [||] in
  let rec fill buf n =
    if n = Batch.default_rows then n
    else
      match !parts with
      | p :: rest ->
        parts := rest;
        let o = pair !driver p in
        if keep o then begin
          buf.(n) <- o;
          fill buf (n + 1)
        end
        else fill buf n
      | [] -> (
        match next_driver () with
        | None ->
          finished := true;
          n
        | Some d ->
          driver := d;
          parts := partners d;
          fill buf n)
  in
  fun () ->
    if !finished then None
    else
      let n = fill buf 0 in
      if n = 0 then None else Some (Batch.of_sub schema buf n)

(* ---- hash join ---- *)

(* A key's rows, most recently added first. *)
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

let part_hash nparts keys_idx t =
  (Tuple_key.hash (Tuple.project_arr t keys_idx) land max_int) mod nparts

(* A drained hash-join build side and what the probe needs. *)
type build = {
  rows : Tuple.t list;  (* in input order *)
  bschema : Schema.t;
  pages : int;
  in_memory : bool;  (* fits in work_mem pages; otherwise the join spills *)
  build_keys : int array;
  probe_keys : int array;
  out_schema : Schema.t;
  pair : Tuple.t -> Tuple.t -> Tuple.t;  (* probe row -> build row -> output *)
  keep : Tuple.t -> bool;  (* residual conjuncts *)
}

(* The build step: drain the build side and size it, then resolve keys,
   output pairing and schema for [build_side]. *)
let hash_build ctx ~keys ~cond ~build_side (bit : Biter.t) ~probe_schema =
  let rows = Biter.to_list bit in
  let bschema = bit.Biter.schema in
  let pages =
    Page.pages_for ~rows:(List.length rows) ~row_bytes:(Schema.byte_width bschema)
  in
  let out_schema, pair, bcols, pcols =
    match build_side with
    | `Right ->
      ( Schema.append probe_schema bschema,
        (fun pt bt -> Tuple.concat pt bt),
        List.map snd keys,
        List.map fst keys )
    | `Left ->
      ( Schema.append bschema probe_schema,
        (fun pt bt -> Tuple.concat bt pt),
        List.map fst keys,
        List.map snd keys )
  in
  {
    rows;
    bschema;
    pages;
    in_memory = pages <= Exec_ctx.work_mem ctx;
    build_keys = resolve_all bschema bcols;
    probe_keys = resolve_all probe_schema pcols;
    out_schema;
    pair;
    keep = compile_preds out_schema cond;
  }

(* In-memory join: the probe rows drive [nl_batches], each meeting its
   key's build rows in [table]. *)
let memory_join b table (probe : Biter.t) : Biter.t =
  let next_batch =
    nl_batches b.out_schema ~next_driver:(cursor probe)
      ~partners:(probe_hits table b.probe_keys) ~pair:b.pair ~keep:b.keep
  in
  { Biter.schema = b.out_schema; next_batch; close = probe.Biter.close }

(* Grace hash join: partition both sides to temp files by key hash, then
   join partition by partition through [nl_batches], building one
   partition's table at a time and dropping its temps once its probe rows
   are used up.  Output: partitions in index order, probe order within
   each. *)
let grace_join ctx b (probe : Biter.t) : Biter.t =
  let work_mem = Exec_ctx.work_mem ctx in
  let nparts = min 64 (max 2 ((b.pages + work_mem - 2) / (work_mem - 1))) in
  let spill schema keys iter =
    let parts = Array.init nparts (fun _ -> Exec_ctx.temp ctx schema) in
    iter (fun t -> ignore (Heap_file.append parts.(part_hash nparts keys t) t));
    parts
  in
  let build_parts = spill b.bschema b.build_keys (fun f -> List.iter f b.rows) in
  let probe_schema = probe.Biter.schema in
  let probe_parts = spill probe_schema b.probe_keys (fun f -> Biter.iter_rows f probe) in
  let drop p =
    Exec_ctx.drop ctx build_parts.(p);
    Exec_ctx.drop ctx probe_parts.(p)
  in
  let part = ref (-1) and table = ref (TH.create 1) in
  let next_probe = ref (fun () -> None) in
  let rec next_driver () =
    match !next_probe () with
    | Some pt -> Some pt
    | None ->
      if !part >= 0 then drop !part;
      if !part + 1 >= nparts then None
      else begin
        incr part;
        table :=
          build_hash_table b.build_keys
            (Biter.to_list (scan_batches b.bschema build_parts.(!part)));
        next_probe := cursor (scan_batches probe_schema probe_parts.(!part));
        next_driver ()
      end
  in
  let next_batch =
    nl_batches b.out_schema ~next_driver
      ~partners:(fun pt -> probe_hits !table b.probe_keys pt)
      ~pair:b.pair ~keep:b.keep
  in
  let close () = for p = 0 to nparts - 1 do drop p done in
  { Biter.schema = b.out_schema; next_batch; close }

(* Statement-limit polling (deadline / cancellation), applied to every
   operator a guarded statement opens.  Wrapping each node — not just the
   root — keeps pipeline breakers responsive: the scan feeding a big sort or
   group polls while the breaker is still absorbing input.  The check runs
   once per batch, the natural boundary. *)
let guard_biter ctx (bit : Biter.t) =
  if not (Exec_ctx.guarded ctx) then bit
  else
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

let project cols (bit : Biter.t) : Biter.t =
  let fns = Array.of_list (List.map (fun (e, _) -> Expr.compile bit.Biter.schema e) cols) in
  let out_schema = Schema.of_columns (List.map snd cols) in
  let row tup = Array.map (fun f -> f tup) fns in
  let next_batch () = Option.map (Batch.map out_schema row) (bit.Biter.next_batch ()) in
  { Biter.schema = out_schema; next_batch; close = bit.Biter.close }

(* Hash join: drain the build side once; if it fits in work_mem, the probe
   stream meets one table; otherwise the grace join takes the drained build
   and the probe stream. *)
let hash_join ctx ~keys ~cond ~build_side build (probe : Biter.t) : Biter.t =
  let b = hash_build ctx ~keys ~cond ~build_side build ~probe_schema:probe.Biter.schema in
  if b.in_memory then memory_join b (build_hash_table b.build_keys b.rows) probe
  else grace_join ctx b probe

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
  guard_biter ctx bit

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
    project p.cols (open_batch ctx p.input)
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
    let lbit = open_batch ctx j.left in
    let rbit = open_batch ctx j.right in
    let build, probe =
      match j.build_side with `Right -> (rbit, lbit) | `Left -> (lbit, rbit)
    in
    hash_join ctx ~keys:j.keys ~cond:j.cond ~build_side:j.build_side build probe
  | Physical.Hash_group g -> batch_hash_group ctx g
  | Physical.Block_nl_join j -> batch_bnl_join ctx j.left j.right j.cond
  | Physical.Index_nl_join j ->
    batch_index_nl_join ctx ~left:j.left ~alias:j.alias ~table:j.table
      ~column:j.column ~outer_key:j.outer_key ~cond:j.cond
  | Physical.Merge_join j ->
    batch_merge_join ctx ~left:j.left ~right:j.right ~keys:j.keys ~cond:j.cond
  | Physical.Sort_group g -> batch_sort_group ctx g

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
    List.rev !buf
  in
  let inner : Biter.t option ref = ref None in
  let close_inner () =
    Option.iter (fun (it : Biter.t) -> it.Biter.close ()) !inner;
    inner := None
  in
  (* Drivers are the inner rows, block by block; each meets the block. *)
  let block = ref [] and next_inner = ref (fun () -> None) in
  let rec next_driver () =
    match !next_inner () with
    | Some rt -> Some rt
    | None ->
      close_inner ();
      block := load_block ();
      if !block = [] then None
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
        List.map (Heap_file.get tbl.Catalog.heap)
          (Btree.search_eq idx (Tuple.get lt key_idx)))
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
    group := Some (rk, List.rev !acc)
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
      ~partners:(fun _ -> match !group with Some (_, rows) -> rows | None -> [])
      ~pair:Tuple.concat ~keep
  in
  let close () =
    lbit.Biter.close ();
    rbit.Biter.close ()
  in
  { Biter.schema = out_schema; next_batch; close }

(* Sort-group over input sorted on the grouping keys: one open group folds
   rows with the group kernel's cells and is finished when the first row of
   the next group arrives.  Each input batch yields the groups it
   finished. *)
and batch_sort_group ctx (g : Physical.group) : Biter.t =
  let cat = Exec_ctx.catalog ctx in
  let bit = open_batch ctx g.Physical.input in
  let in_schema = bit.Biter.schema in
  let out_schema = Physical.schema cat (Physical.Sort_group g) in
  let key_idx = resolve_all in_schema g.Physical.keys in
  let f = folder in_schema g.Physical.aggs in
  let current = ref None and finished = ref false in
  let rec next_batch () =
    if !finished then None
    else
      match bit.Biter.next_batch () with
      | None ->
        finished := true;
        Option.map (fun cur -> Batch.of_rows out_schema [| finish_row f cur |]) !current
      | Some b ->
        let out = ref [] and n = ref 0 in
        Batch.iter
          (fun tup ->
            let k = Tuple.project_arr tup key_idx in
            let cur =
              match !current with
              | Some cur when compare_keys k cur.key = 0 -> cur
              | prev ->
                Option.iter
                  (fun cur ->
                    out := finish_row f cur :: !out;
                    incr n)
                  prev;
                let cur = { key = k; cell = Fresh } in
                current := Some cur;
                cur
            in
            step f cur tup)
          b;
        if !n = 0 then next_batch () else Some (batch_of_rev out_schema !n !out)
  in
  with_having out_schema g
    { Biter.schema = out_schema; next_batch; close = bit.Biter.close }

and batch_hash_group ctx (g : Physical.group) : Biter.t =
  let bit = open_batch ctx g.Physical.input in
  let in_schema = bit.Biter.schema in
  let t =
    gtable (folder in_schema g.Physical.aggs) (resolve_all in_schema g.Physical.keys)
  in
  Biter.iter (Batch.iter (add t)) bit;
  let out_schema = Physical.schema (Exec_ctx.catalog ctx) (Physical.Hash_group g) in
  with_having out_schema g (Biter.of_rows out_schema (emit t))

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
