(* Morsel-driven intra-query parallelism.

   A parallel segment is driven by page-range morsels claimed from a shared
   atomic cursor: morsel [m] covers pages [m*ppb, (m+1)*ppb) of the driving
   heap scan, the same page ranges (and therefore the same batches) the
   serial [Executor.scan_batches] produces.  [dop] worker domains each fork
   the statement context, claim morsels until the cursor runs dry, and hand
   their output to the consuming domain through a bounded MPMC queue.  The
   consumer resequences morsels back into cursor order, so a parallel plan's
   output is byte-identical to the serial plan's.

   Error containment: the first worker exception wins a CAS slot and raises
   the shared stop flag; siblings stop at their next morsel claim, the
   last-finishing worker closes the queue, and the consumer re-raises the
   stored error once the queue drains — one typed error per statement, no
   stuck producers (pushes to a closed queue are dropped). *)

let max_dop = 64
let clamp_dop d = max 1 (min max_dop d)

(* Per-worker counters, surfaced as [worker-<i>] profile nodes. *)
type wstats = {
  wid : int;
  mutable wrows : int;
  mutable wbatches : int;
  mutable wms : float;
  mutable wio : Buffer_pool.stats;
}

let zero_io = { Buffer_pool.reads = 0; writes = 0; hits = 0 }
let fresh_stats wid = { wid; wrows = 0; wbatches = 0; wms = 0.; wio = zero_io }

let io_add a b =
  {
    Buffer_pool.reads = a.Buffer_pool.reads + b.Buffer_pool.reads;
    writes = a.Buffer_pool.writes + b.Buffer_pool.writes;
    hits = a.Buffer_pool.hits + b.Buffer_pool.hits;
  }

(* ---- bounded MPMC morsel queue ---- *)

module Mpmc = struct
  type 'a t = {
    lock : Mutex.t;
    not_full : Condition.t;
    not_empty : Condition.t;
    buf : 'a Queue.t;
    cap : int;
    mutable closed : bool;
  }

  let protect m f =
    Mutex.lock m;
    Fun.protect ~finally:(fun () -> Mutex.unlock m) f

  let create cap =
    {
      lock = Mutex.create ();
      not_full = Condition.create ();
      not_empty = Condition.create ();
      buf = Queue.create ();
      cap = max 1 cap;
      closed = false;
    }

  (* Blocks while full; pushing to a closed queue drops the item (the
     producers are being torn down and the consumer no longer cares). *)
  let push q x =
    protect q.lock (fun () ->
        while (not q.closed) && Queue.length q.buf >= q.cap do
          Condition.wait q.not_full q.lock
        done;
        if not q.closed then begin
          Queue.push x q.buf;
          Condition.signal q.not_empty
        end)

  (* Blocks while empty and open; [None] means closed {e and} drained. *)
  let pop q =
    protect q.lock (fun () ->
        while Queue.is_empty q.buf && not q.closed do
          Condition.wait q.not_empty q.lock
        done;
        if Queue.is_empty q.buf then None
        else begin
          let x = Queue.pop q.buf in
          Condition.signal q.not_full;
          Some x
        end)

  let close q =
    protect q.lock (fun () ->
        q.closed <- true;
        Condition.broadcast q.not_empty;
        Condition.broadcast q.not_full)
end

(* ---- worker team ---- *)

type 'a team = {
  mutable domains : unit Domain.t array;
  cursor : int Atomic.t;
  n_morsels : int;
  stats : wstats array;
  results : 'a option array;
  error : (exn * Printexc.raw_backtrace) option Atomic.t;
  stop : bool Atomic.t;
  storage : Storage.t;
  mutable joined : bool;
}

let make_team ~ctx ~dop ~n_morsels =
  {
    domains = [||];
    cursor = Atomic.make 0;
    n_morsels;
    stats = Array.init dop fresh_stats;
    results = Array.make dop None;
    error = Atomic.make None;
    stop = Atomic.make false;
    storage = Exec_ctx.storage ctx;
    joined = false;
  }

(* One worker's body, on whichever domain calls it.  [worker] drives its
   own loop via [claim], which polls the stop flag and the statement limits
   (deadline / cancellation) before dispensing the next morsel index.  The
   worker runs on a forked context (own temp list, same cancel token) that
   is cleaned up before it returns, measures its own wall time and
   per-domain IO tally, and parks its result or its error in the team. *)
let run_worker ctx t worker wid =
  let ws = t.stats.(wid) in
  let wctx = Exec_ctx.fork ctx in
  let t0 = Unix.gettimeofday () in
  let before = Storage.io_snapshot t.storage in
  let claim () =
    if Atomic.get t.stop then None
    else begin
      if Exec_ctx.guarded wctx then Exec_ctx.check wctx;
      let m = Atomic.fetch_and_add t.cursor 1 in
      if m >= t.n_morsels then None else Some m
    end
  in
  (try t.results.(wid) <- Some (worker ~wid ~stats:ws wctx ~claim)
   with e ->
     let bt = Printexc.get_raw_backtrace () in
     ignore (Atomic.compare_and_set t.error None (Some (e, bt)));
     Atomic.set t.stop true);
  (try Exec_ctx.cleanup wctx with _ -> ());
  ws.wms <- (Unix.gettimeofday () -. t0) *. 1000.;
  ws.wio <- Storage.io_since t.storage before

(* Spawn [dop] domains, each running one worker body. *)
let spawn ~ctx ~dop ~n_morsels
    ~(worker :
       wid:int -> stats:wstats -> Exec_ctx.t -> claim:(unit -> int option) -> 'a)
    : 'a team =
  let t = make_team ~ctx ~dop:(clamp_dop dop) ~n_morsels in
  t.domains <-
    Array.init (Array.length t.stats) (fun wid ->
        Domain.spawn (fun () -> run_worker ctx t worker wid));
  t

let cancel t = Atomic.set t.stop true

(* Join all worker domains (idempotent) and credit their IO to the calling
   domain's tally, so the enclosing snapshot-and-subtract measurement
   windows ([Executor.run_measured], profile nodes) include parallel work. *)
let join t =
  if not t.joined then begin
    t.joined <- true;
    Array.iter Domain.join t.domains;
    Array.iter (fun ws -> Storage.io_add_local t.storage ws.wio) t.stats
  end

let raise_if_error t =
  match Atomic.get t.error with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

(* ---- blocking fold: per-worker accumulators (parallel partial agg) ---- *)

let fold ~ctx ~dop ~n_morsels ~worker ?on_done () =
  let team =
    if clamp_dop dop > 1 then spawn ~ctx ~dop ~n_morsels ~worker
    else begin
      (* At dop 1 the calling domain runs the one worker body itself: no
         spawn, and nothing to join or re-credit — its IO already lands on
         this domain's tally. *)
      let t = make_team ~ctx ~dop:1 ~n_morsels in
      t.joined <- true;
      run_worker ctx t worker 0;
      t
    end
  in
  join team;
  (match on_done with Some f -> f team.stats | None -> ());
  raise_if_error team;
  let results =
    Array.map
      (function Some r -> r | None -> invalid_arg "Exchange.fold: lost worker")
      team.results
  in
  (results, team.stats)

(* ---- streaming gather: resequencing consumer ---- *)

let count_out ws batches =
  List.iter
    (fun b ->
      ws.wrows <- ws.wrows + Batch.live b;
      ws.wbatches <- ws.wbatches + 1)
    batches

(* Serve the morsels' batch lists one batch at a time: [next_morsel]
   returns the next morsel's batches in order, [None] at the end. *)
let flatten ~schema ~next_morsel ~close : Biter.t =
  let pending = ref [] in
  let rec next_batch () =
    match !pending with
    | b :: rest ->
      pending := rest;
      Some b
    | [] -> (
      match next_morsel () with
      | None -> None
      | Some bs ->
        pending := bs;
        next_batch ())
  in
  { Biter.schema; next_batch; close }

(* dop-1 gather: the leader claims and evaluates morsels lazily in
   [next_batch], on its own domain — no spawn, no queue, no resequencing
   (a single claimer is already in order) and no IO re-crediting. *)
let gather_inline ~ctx ~schema ~n_morsels ~morsel ?on_done () : Biter.t =
  let ws = fresh_stats 0 in
  let wctx = Exec_ctx.fork ctx in
  let storage = Exec_ctx.storage ctx in
  let next = ref 0 in
  let finished = ref false in
  let finish () =
    if not !finished then begin
      finished := true;
      (try Exec_ctx.cleanup wctx with _ -> ());
      match on_done with Some f -> f [| ws |] | None -> ()
    end
  in
  let next_morsel () =
    if !next >= n_morsels then begin
      finish ();
      None
    end
    else begin
      match
        if Exec_ctx.guarded wctx then Exec_ctx.check wctx;
        let m = !next in
        incr next;
        let t0 = Unix.gettimeofday () in
        let before = Storage.io_snapshot storage in
        let bs = morsel ~wid:0 wctx m in
        ws.wms <- ws.wms +. ((Unix.gettimeofday () -. t0) *. 1000.);
        ws.wio <- io_add ws.wio (Storage.io_since storage before);
        bs
      with
      | bs ->
        count_out ws bs;
        Some bs
      | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        finish ();
        Printexc.raise_with_backtrace e bt
    end
  in
  flatten ~schema ~next_morsel ~close:finish

let gather_team ~ctx ~dop ~schema ~n_morsels
    ~(morsel : wid:int -> Exec_ctx.t -> int -> Batch.t list) ?on_done () :
    Biter.t =
  let q : (int * Batch.t list) Mpmc.t = Mpmc.create (2 * dop) in
  let active = Atomic.make dop in
  let team =
    spawn ~ctx ~dop ~n_morsels ~worker:(fun ~wid ~stats:ws wctx ~claim ->
        Fun.protect
          ~finally:(fun () ->
            (* Last worker out closes the queue so the consumer's pop can
               return end-of-stream. *)
            if Atomic.fetch_and_add active (-1) = 1 then Mpmc.close q)
          (fun () ->
            let rec loop () =
              match claim () with
              | None -> ()
              | Some m ->
                let bs = morsel ~wid wctx m in
                count_out ws bs;
                (* Empty morsels are pushed too, so the resequencer can
                   advance past them. *)
                Mpmc.push q (m, bs);
                loop ()
            in
            loop ()))
  in
  (* Resequencer: drain the queue into a reorder map keyed by morsel index
     and emit strictly in index order.  The map is unbounded, so the queue
     always drains no matter how far out of order workers complete — a
     bounded queue plus in-order blocking pops would deadlock. *)
  let pending : (int, Batch.t list) Hashtbl.t = Hashtbl.create 64 in
  let next_seq = ref 0 in
  let finished = ref false in
  let finish () =
    if not !finished then begin
      finished := true;
      Mpmc.close q;
      join team;
      (match on_done with Some f -> f team.stats | None -> ());
      raise_if_error team
    end
  in
  let rec next_morsel () =
    if !next_seq >= n_morsels then begin
      finish ();
      None
    end
    else
      match Hashtbl.find_opt pending !next_seq with
      | Some bs ->
        Hashtbl.remove pending !next_seq;
        incr next_seq;
        Some bs
      | None -> (
        match Mpmc.pop q with
        | Some (m, bs) ->
          Hashtbl.replace pending m bs;
          next_morsel ()
        | None ->
          (* Closed and drained with morsels still missing: a worker died or
             the stream was stopped.  Surface the first error, else end. *)
          finish ();
          None)
  in
  let close () =
    cancel team;
    Mpmc.close q;
    try finish () with _ -> ()
  in
  flatten ~schema ~next_morsel ~close

let gather ~ctx ~dop ~schema ~n_morsels ~morsel ?on_done () : Biter.t =
  let dop = clamp_dop dop in
  if dop = 1 then gather_inline ~ctx ~schema ~n_morsels ~morsel ?on_done ()
  else gather_team ~ctx ~dop ~schema ~n_morsels ~morsel ?on_done ()

(* ---- plan surgery ---- *)

(* Aggregates whose partial/merge decomposition reproduces the serial
   fold bit for bit.  COUNT/MIN/MAX always; SUM and AVG only over Int
   arguments — float addition is not associative, so partial float sums
   would differ from the serial left fold in the low bits.  UDF folds are
   order-dependent by construction. *)
let parallel_agg_ok (a : Aggregate.t) =
  match a.Aggregate.func with
  | Aggregate.Count_star | Aggregate.Count | Aggregate.Min | Aggregate.Max ->
    true
  | Aggregate.Sum | Aggregate.Avg -> (
    match a.Aggregate.arg with
    | Some e -> Expr.type_of e = Datatype.Int
    | None -> false)
  | Aggregate.Udf _ -> false

let parallel_group_ok aggs = List.for_all parallel_agg_ok aggs

(* A morsel pipeline the workers can evaluate independently: a heap scan
   driving filters, projections and hash-join probes.  Build sides are
   evaluated once up front (and may be any plan), so only the probe spine
   is constrained. *)
let rec segment_ok = function
  | Physical.Seq_scan _ -> true
  | Physical.Filter f -> segment_ok f.input
  | Physical.Project p -> segment_ok p.input
  | Physical.Hash_join j ->
    segment_ok (match j.build_side with `Left -> j.right | `Right -> j.left)
  | _ -> false

(* Insert (at most) one [Exchange] at the widest eligible point of the
   plan: directly under a hash group whose input is a parallel segment (the
   executor then runs partial aggregation on the workers and merges), or
   around a bare segment.  Recurses through the unary wrappers the
   optimizer puts on top (Project / Sort / Limit / Filter / Materialize)
   and through outer group-bys. *)
let parallelize ~dop plan =
  let dop = clamp_dop dop in
  let wrap seg = Physical.Exchange { input = seg; dop } in
  let rec go plan =
    if segment_ok plan then wrap plan
    else
      match plan with
      | Physical.Hash_group g when segment_ok g.input ->
        Physical.Hash_group { g with input = wrap g.input }
      | Physical.Hash_group g -> Physical.Hash_group { g with input = go g.input }
      | Physical.Sort s -> Physical.Sort { s with input = go s.input }
      | Physical.Limit l -> Physical.Limit { l with input = go l.input }
      | Physical.Project p -> Physical.Project { p with input = go p.input }
      | Physical.Filter f -> Physical.Filter { f with input = go f.input }
      | Physical.Materialize m -> Physical.Materialize { input = go m.input }
      | other -> other
  in
  go plan

(* Does the plan contain an [Exchange]?  (Used by the optimizer to report
   whether the parallel rewrite fired, and by tests.) *)
let rec has_exchange = function
  | Physical.Exchange _ -> true
  | p -> List.exists has_exchange (Physical.inputs p)
