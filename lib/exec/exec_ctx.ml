type t = {
  cat : Catalog.t;
  work_mem : int;
  mutable temps : Heap_file.t list;
  mutable profiler : Profile.t option;
  (* Per-statement limits, reset by [begin_statement].  A context belongs to
     one domain at a time, so the fields are plain mutables; only the cancel
     token is shared (another domain sets it to cancel the statement). *)
  mutable deadline : float option;  (* absolute Unix time *)
  mutable timeout_ms : float;  (* for the Timeout error payload *)
  mutable cancel_token : bool Atomic.t;
  mutable spill_quota : int option;
  mutable spill_pages : int;
  mutable guarded : bool;
}

let create ?(work_mem = 32) cat =
  if work_mem < 3 then invalid_arg "Exec_ctx.create: work_mem < 3";
  {
    cat;
    work_mem;
    temps = [];
    profiler = None;
    deadline = None;
    timeout_ms = 0.;
    cancel_token = Atomic.make false;
    spill_quota = None;
    spill_pages = 0;
    guarded = false;
  }

let profiler t = t.profiler
let set_profiler t p = t.profiler <- p

let catalog t = t.cat
let work_mem t = t.work_mem
let storage t = Catalog.storage t.cat

(* ---- statement limits ---- *)

let begin_statement ?timeout_ms ?spill_quota ?cancel t =
  (match timeout_ms with
   | Some ms when ms <= 0. ->
     invalid_arg "Exec_ctx.begin_statement: timeout_ms <= 0"
   | _ -> ());
  (match spill_quota with
   | Some q when q < 0 ->
     invalid_arg "Exec_ctx.begin_statement: spill_quota < 0"
   | _ -> ());
  t.deadline <-
    (match timeout_ms with
     | None -> None
     | Some ms -> Some (Unix.gettimeofday () +. (ms /. 1000.)));
  t.timeout_ms <- Option.value ~default:0. timeout_ms;
  t.cancel_token <- (match cancel with Some c -> c | None -> Atomic.make false);
  t.spill_quota <- spill_quota;
  t.spill_pages <- 0;
  t.guarded <- t.deadline <> None || cancel <> None

(* Statements also poll while a process-wide shutdown may be in progress
   (lifecycle handlers installed), so a drain that escalates to abort stops
   every in-flight statement at its next batch boundary even when it carries
   no deadline or cancel token of its own. *)
let guarded t = t.guarded || Lifecycle.engaged ()

let check t =
  if Lifecycle.aborting () then Avq_error.error Avq_error.Cancelled;
  if Atomic.get t.cancel_token then Avq_error.error Avq_error.Cancelled;
  match t.deadline with
  | Some d when Unix.gettimeofday () > d ->
    Avq_error.error (Avq_error.Timeout { limit_ms = t.timeout_ms })
  | _ -> ()

let spill_pages t = t.spill_pages

(* Cumulative per-statement spill accounting: every fresh temp page counts
   against the quota, whether or not the file is dropped later — the budget
   bounds how much spilling the statement may *do*, not its high-water
   mark. *)
let on_spill_page t _page =
  t.spill_pages <- t.spill_pages + 1;
  match t.spill_quota with
  | Some q when t.spill_pages > q ->
    Avq_error.error
      (Avq_error.Resource_exceeded
         { resource = "temp-pages"; limit = q; used = t.spill_pages })
  | _ -> ()

let temp t schema =
  let h = Storage.create_temp (storage t) schema in
  Heap_file.set_page_hook h (Some (on_spill_page t));
  t.temps <- h :: t.temps;
  h

(* Idempotent: dropping a heap the context no longer tracks is a no-op, so
   an operator's eager close composes with the outer close / cleanup. *)
let drop t h =
  let id = Heap_file.file_id h in
  if List.exists (fun h' -> Heap_file.file_id h' = id) t.temps then begin
    Storage.drop_temp (storage t) h;
    t.temps <- List.filter (fun h' -> Heap_file.file_id h' <> id) t.temps
  end

let live_temps t = List.length t.temps

let cleanup t =
  List.iter (fun h -> Storage.drop_temp (storage t) h) t.temps;
  t.temps <- []
