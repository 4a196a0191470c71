(* EXPLAIN ANALYZE: run a plan with per-operator profiling, then zip the
   executor's actuals back onto the plan tree next to the cost model's
   estimates, so cost-model error (q-error) is visible — and testable — per
   node.  The paper's claims are cost-based; this is where estimated and
   measured IO finally meet. *)

type node = {
  label : string;
  op : string;
  est : Cost_model.est;
  rows : int;
  pages : int;  (* actual inclusive page touches (reads+writes+hits) of the subtree *)
  ms : float;  (* inclusive wall time (open + pulls) *)
  batches : int;
  missing : bool;
  children : node list;
}

type t = {
  root : node;
  wall_ms : float;
  io : Buffer_pool.stats;
  error : string option;
}

(* q-error: multiplicative estimation error, symmetric in over / under
   estimation.  Both sides are clamped at 1 so empty results and zero-IO
   nodes don't blow up the ratio. *)
let q_error ~est ~actual =
  let e = Float.max est 1. and a = Float.max actual 1. in
  Float.max (e /. a) (a /. e)

let q_rows n = q_error ~est:n.est.Cost_model.rows ~actual:(float_of_int n.rows)

let q_pages n =
  q_error ~est:n.est.Cost_model.cost ~actual:(float_of_int n.pages)

(* Match plan children to profile children by operator name, in order.  The
   profile list is a subsequence of the plan list: a BNL join reopens its
   inner side with profiling suspended, so that child has no profile node —
   it renders as [missing] rather than stealing a sibling's counters. *)
let rec match_children plans profs =
  match plans with
  | [] -> []
  | p :: ps -> (
    match profs with
    | pr :: prs when pr.Profile.pname = Physical.op_name p ->
      (p, Some pr) :: match_children ps prs
    | _ -> (p, None) :: match_children ps profs)

let rec zip cat ~work_mem plan prof =
  let est = Cost_model.estimate cat ~work_mem plan in
  let pairs =
    match_children (Explain.children plan)
      (match prof with Some n -> Profile.children n | None -> [])
  in
  let children = List.map (fun (p, pr) -> zip cat ~work_mem p pr) pairs in
  match prof with
  | Some n ->
    {
      label = Explain.node_label plan;
      op = Physical.op_name plan;
      est;
      rows = n.Profile.rows_out;
      pages = Profile.total_touches n;
      ms = Profile.total_ms n;
      batches = n.Profile.batches;
      missing = false;
      children;
    }
  | None ->
    {
      label = Explain.node_label plan;
      op = Physical.op_name plan;
      est;
      rows = 0;
      pages = 0;
      ms = 0.;
      batches = 0;
      missing = true;
      children;
    }

let of_profile cat ~work_mem plan ~io ~wall_ms prof =
  let root =
    match Profile.roots prof with
    | r :: _ -> zip cat ~work_mem plan (Some r)
    | [] -> zip cat ~work_mem plan None
  in
  { root; wall_ms; io; error = Profile.error prof }

let analyze ?cold ctx plan =
  let cat = Exec_ctx.catalog ctx in
  let work_mem = Exec_ctx.work_mem ctx in
  let t0 = Unix.gettimeofday () in
  match Executor.run_profiled_result ?cold ctx plan with
  | Ok (rel, io, prof) ->
    let wall_ms = (Unix.gettimeofday () -. t0) *. 1000. in
    (Ok rel, of_profile cat ~work_mem plan ~io ~wall_ms prof)
  | Error (e, prof) ->
    let wall_ms = (Unix.gettimeofday () -. t0) *. 1000. in
    let io = { Buffer_pool.reads = 0; writes = 0; hits = 0 } in
    (Error e, of_profile cat ~work_mem plan ~io ~wall_ms prof)

let nodes t =
  let rec go acc n = List.fold_left go (n :: acc) n.children in
  List.rev (go [] t.root)

let pp ppf t =
  let rec go indent n =
    if n.missing then
      Format.fprintf ppf "%s%-26s (est rows=%.0f io=%.1f) (actual: not profiled)@\n"
        (String.make indent ' ') n.label n.est.Cost_model.rows
        n.est.Cost_model.cost
    else
      Format.fprintf ppf
        "%s%-26s (est rows=%.0f io=%.1f) (act rows=%d pages=%d ms=%.2f) \
         q_rows=%.2f q_pages=%.2f@\n"
        (String.make indent ' ') n.label n.est.Cost_model.rows
        n.est.Cost_model.cost n.rows n.pages n.ms (q_rows n) (q_pages n);
    List.iter (go (indent + 2)) n.children
  in
  go 0 t.root;
  (match t.error with
   | Some msg -> Format.fprintf ppf "Execution: FAILED (partial stats): %s@\n" msg
   | None -> ());
  Format.fprintf ppf "Execution: %.2f ms, io reads=%d writes=%d hits=%d@\n"
    t.wall_ms t.io.Buffer_pool.reads t.io.Buffer_pool.writes
    t.io.Buffer_pool.hits

let to_string t = Format.asprintf "%a" pp t
