type mode = Abort_on_signal | Drain_then_abort

(* 0 = running, 1 = draining, 2 = aborting.  Monotone: shutdown only ever
   escalates, so a relaxed read racing an escalation errs on the lenient
   side for at most one poll interval. *)
let state = Atomic.make 0
let got_signal = Atomic.make 0
let is_installed = Atomic.make false
let current_mode = Atomic.make Abort_on_signal

let draining () = Atomic.get state > 0
let aborting () = Atomic.get state > 1
let engaged () = Atomic.get is_installed || Atomic.get state > 0

let escalate level =
  (* never de-escalate *)
  let rec go () =
    let cur = Atomic.get state in
    if cur >= level then ()
    else if not (Atomic.compare_and_set state cur level) then go ()
  in
  go ()

(* Self-pipe: the handler pokes it so select loops wake up.  Created
   lazily; both ends non-blocking (a full pipe must not block the signal
   handler — one pending byte is enough to wake any reader). *)
let pipe = lazy (
  let r, w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock r;
  Unix.set_nonblock w;
  (r, w))

let wake_fd () = fst (Lazy.force pipe)

let wake () =
  let _, w = Lazy.force pipe in
  try ignore (Unix.write w (Bytes.make 1 '!') 0 1) with
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | Unix.Unix_error _ -> ()

let drain_wake () =
  let r = wake_fd () in
  let buf = Bytes.create 64 in
  let rec go () =
    match Unix.read r buf 0 64 with
    | 0 -> ()
    | _ -> go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  go ()

let request_drain () =
  escalate 1;
  wake ()

let request_abort () =
  escalate 2;
  wake ()

let on_signal signo =
  Atomic.set got_signal signo;
  (match Atomic.get current_mode with
   | Abort_on_signal -> escalate 2
   | Drain_then_abort ->
     (* first signal drains, a repeat aborts *)
     if Atomic.get state > 0 then escalate 2 else escalate 1);
  wake ()

let install ?(signals = [ Sys.sigint; Sys.sigterm ]) mode =
  Atomic.set current_mode mode;
  if not (Atomic.exchange is_installed true) then
    (* force the pipe outside the handler; handlers must not allocate it *)
    ignore (Lazy.force pipe);
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle on_signal)) signals

let exit_code () =
  match Atomic.get got_signal with 0 -> 0 | s ->
    (* [Sys.sigint] etc. are OCaml's own negative encodings; map the two we
       handle onto their POSIX numbers for the conventional 128+N status. *)
    let posix = if s = Sys.sigint then 2 else if s = Sys.sigterm then 15 else 0 in
    if posix = 0 then 1 else 128 + posix

(* Hooks: plain mutex — registered and run from regular control flow only,
   never from the signal handler. *)
let hooks_lock = Mutex.create ()
let hooks : (unit -> unit) list ref = ref []

let at_shutdown f = Mutex.protect hooks_lock (fun () -> hooks := f :: !hooks)

let run_hooks () =
  let hs =
    Mutex.protect hooks_lock (fun () ->
        let hs = !hooks in
        hooks := [];
        hs)
  in
  List.iter
    (fun f ->
      try f () with e ->
        Printf.eprintf "lifecycle: shutdown hook failed: %s\n%!"
          (Printexc.to_string e))
    hs

let reset () =
  Atomic.set state 0;
  Atomic.set got_signal 0;
  Mutex.protect hooks_lock (fun () -> hooks := []);
  drain_wake ()
