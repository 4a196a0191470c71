type config = {
  host : string;
  port : int;
  max_connections : int;
  max_queue : int;
  drain_grace_ms : float;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 5499;
    max_connections = 64;
    max_queue = 32;
    drain_grace_ms = 5_000.;
  }

type session = {
  id : int;
  fd : Unix.file_descr;
  sm : Mutex.t;
  mutable fd_closed : bool;
  mutable limits : Service.session_limits;
  prepared : (string, Service.stmt) Hashtbl.t;
  mutable thread : Thread.t option;
}

type t = {
  cfg : config;
  pool : Service.Pool.t;
  svc : Service.t;
  listen_fd : Unix.file_descr;
  bound_port : int;
  stop_r : Unix.file_descr;  (* server-local wake pipe for the accept loop *)
  stop_w : Unix.file_descr;
  stopping : bool Atomic.t;
  stopped : bool Atomic.t;
  in_flight_n : int Atomic.t;
  admitted_n : int Atomic.t;
  rejected_n : int Atomic.t;
  next_id : int Atomic.t;
  tm : Mutex.t;
  sessions : (int, session) Hashtbl.t;
  mutable acceptor : Thread.t option;
}

let port t = t.bound_port
let in_flight t = Atomic.get t.in_flight_n
let admitted t = Atomic.get t.admitted_n
let rejected t = Atomic.get t.rejected_n

let connections t =
  Mutex.protect t.tm (fun () -> Hashtbl.length t.sessions)

(* Only the handler thread ever [close]s its fd (closing from another
   thread would not wake a blocked read, and risks fd reuse); [stop]
   instead [shutdown]s the socket, which does wake the reader. *)
let close_session t sess =
  let close_now =
    Mutex.protect sess.sm (fun () ->
        if sess.fd_closed then false
        else (
          sess.fd_closed <- true;
          true))
  in
  if close_now then (try Unix.close sess.fd with Unix.Unix_error _ -> ());
  Mutex.protect t.tm (fun () -> Hashtbl.remove t.sessions sess.id)

let shutdown_session sess =
  Mutex.protect sess.sm (fun () ->
      if not sess.fd_closed then
        try Unix.shutdown sess.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())

(* ---- replies ---- *)

let typed_err e =
  Protocol.Err { kind = Avq_error.kind_label e; detail = Avq_error.to_string e }

(* A reply larger than the wire's frame cap must not fail opaquely (the old
   behavior: [write_frame] raised, the handler tore the connection down).
   [write_frame] checks the size before writing any bytes, so the stream is
   still in frame-sync — replace the oversized reply with a typed
   [resource-exceeded] error, counted in [avq_errors_total]. *)
let send t sess reply =
  let payload = Protocol.encode_reply reply in
  if String.length payload > Wire.max_frame then begin
    let e =
      Avq_error.Resource_exceeded
        { resource = "reply-frame"; limit = Wire.max_frame;
          used = String.length payload }
    in
    Service.record_error t.svc e;
    Wire.write_frame sess.fd
      (Protocol.encode_reply
         (Protocol.Err
            { kind = Avq_error.kind_label e;
              detail =
                Printf.sprintf
                  "reply of %d bytes exceeds the %d-byte frame cap; narrow \
                   the result (LIMIT, fewer columns) and retry"
                  (String.length payload) Wire.max_frame }))
  end
  else Wire.write_frame sess.fd payload

let tag_reply ?(source = "tag") ~ms body =
  Protocol.Result { source; rows = 0; ms; body }

(* Every statement failure arrives typed; anything else is an engine bug. *)
let error_reply e =
  match Avq_error.of_exn e with
  | Some t -> typed_err t
  | None -> Protocol.Err { kind = "internal"; detail = Printexc.to_string e }

exception Disconnected

(* ---- admission control ----

   One bounded count of statements admitted-and-unfinished across every
   session.  Rejections are typed and counted in the service's error
   metrics so [avq_errors_total{kind=...}] covers them too. *)

let reject t e =
  Atomic.incr t.rejected_n;
  Service.record_error t.svc e;
  typed_err e

let draining t = Atomic.get t.stopping || Lifecycle.draining ()

let try_admit t =
  if draining t then Error (reject t (Avq_error.Unavailable "server is draining"))
  else
    let n = Atomic.fetch_and_add t.in_flight_n 1 in
    if n >= t.cfg.max_queue then (
      ignore (Atomic.fetch_and_add t.in_flight_n (-1));
      Error
        (reject t
           (Avq_error.Resource_exceeded
              { resource = "admission-queue"; limit = t.cfg.max_queue; used = n + 1 })))
    else (
      Atomic.incr t.admitted_n;
      Ok ())

let finish t = ignore (Atomic.fetch_and_add t.in_flight_n (-1))

(* ---- future waiting with disconnect detection ----

   While a pool worker runs the statement, the handler thread watches its
   client socket: an EOF there (the client vanished) cancels the job so a
   dead connection stops holding a worker and an admission slot.  Once
   pipelined bytes show up on the socket we stop selecting on it (it would
   spin) and just poll the future. *)

let wait_future sess fut =
  let watch = ref true in
  let buf = Bytes.create 1 in
  while not (Service.Pool.peek fut) do
    if !watch then (
      match Unix.select [ sess.fd ] [] [] 0.01 with
      | [ _ ], _, _ -> (
        match Unix.recv sess.fd buf 0 1 [ Unix.MSG_PEEK ] with
        | 0 ->
          Service.Pool.cancel fut;
          raise Disconnected
        | _ -> watch := false
        | exception Unix.Unix_error _ ->
          Service.Pool.cancel fut;
          raise Disconnected)
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
    else Thread.delay 0.005
  done

(* ---- session variables ---- *)

let set_limit limits name value =
  let default = String.lowercase_ascii value = "default" in
  let fopt () =
    if default || value = "0" then None
    else
      match float_of_string_opt value with
      | Some f when f > 0. -> Some f
      | _ -> Avq_error.error (Avq_error.Bad_statement ("bad SET value: " ^ value))
  and iopt ~zero_clears () =
    if default || (zero_clears && value = "0") then None
    else
      match int_of_string_opt value with
      | Some i when i > 0 -> Some i
      | _ -> Avq_error.error (Avq_error.Bad_statement ("bad SET value: " ^ value))
  in
  match String.lowercase_ascii name with
  | "timeout_ms" -> { limits with Service.sl_timeout_ms = fopt () }
  | "spill_quota" -> { limits with Service.sl_spill_quota = iopt ~zero_clears:true () }
  | "work_mem" -> { limits with Service.sl_work_mem = iopt ~zero_clears:false () }
  | _ -> Avq_error.error (Avq_error.Bad_statement ("unknown session variable: " ^ name))

(* ---- statement execution ---- *)

let reply_of ~ms = function
  | Replay.Executed (planned, rel) ->
    Protocol.Result
      {
        source = Service.source_label planned.Service.source;
        rows = Relation.cardinality rel;
        ms;
        body = Format.asprintf "%a" Relation.pp rel;
      }
  | Replay.Rendered body -> tag_reply ~source:"text" ~ms body
  | Replay.Completed tag -> tag_reply ~ms tag
  | Replay.Failed { kind; detail } -> Protocol.Err { kind; detail }

(* [ms] spans admission until the work is done; the reply is rendered
   while the admission slot is still held. *)
let run_admitted t work =
  match try_admit t with
  | Error reply -> reply
  | Ok () ->
    Fun.protect ~finally:(fun () -> finish t) (fun () ->
        let t0 = Unix.gettimeofday () in
        match work () with
        | outcome -> reply_of ~ms:((Unix.gettimeofday () -. t0) *. 1000.) outcome
        | exception Disconnected -> raise Disconnected
        | exception e -> error_reply e)

let await_job sess fut =
  wait_future sess fut;
  Service.Pool.await fut

(* Read-only directives answer outside admission control; every statement
   is admitted, and plain queries run on the pool. *)
let exec_query t sess sql =
  Replay.dispatch ~limits:sess.limits t.svc (Replay.classify sql)
    ~query:(fun q () ->
      await_job sess (Service.Pool.submit_sql ~limits:sess.limits t.pool q))
    ~run:(function
      | `Directive -> fun work -> reply_of ~ms:0. (work ())
      | `Barrier | `Query -> run_admitted t)

let exec_prepared t sess name params =
  match Hashtbl.find_opt sess.prepared name with
  | None -> typed_err (Avq_error.Bad_statement ("no prepared statement " ^ name))
  | Some stmt ->
    run_admitted t (fun () ->
        let params = if params = [] then None else Some params in
        let planned, rel, _io =
          await_job sess (Service.Pool.submit ?params ~limits:sess.limits t.pool stmt)
        in
        Replay.Executed (planned, rel))

let handle_request t sess req =
  match req with
  | Protocol.Close ->
    send t sess (tag_reply ~ms:0. "BYE");
    false
  | Protocol.Set (name, value) ->
    (try
       sess.limits <- set_limit sess.limits name value;
       send t sess (tag_reply ~ms:0. "SET")
     with e -> send t sess (error_reply e));
    true
  | Protocol.Prepare (name, sql) ->
    (try
       let stmt = Service.prepare t.svc sql in
       Hashtbl.replace sess.prepared name stmt;
       send t sess (tag_reply ~ms:0. "PREPARE")
     with e -> send t sess (error_reply e));
    true
  | Protocol.Exec_prepared (name, params) ->
    send t sess (exec_prepared t sess name params);
    true
  | Protocol.Query sql ->
    send t sess (exec_query t sess sql);
    true

let handler t sess =
  let continue = ref true in
  (try
     send t sess
       (Protocol.Hello { server = "avq"; workers = Service.Pool.workers t.pool });
     while !continue do
       match Wire.read_frame sess.fd with
       | None -> continue := false
       | Some payload -> (
         match Protocol.decode_request payload with
         | req -> continue := handle_request t sess req
         | exception Protocol.Protocol_error m ->
           send t sess (Protocol.Err { kind = "protocol"; detail = m }))
     done
   with
  | Disconnected | Wire.Protocol_error _ | Unix.Unix_error _ | Sys_error _ -> ());
  close_session t sess

(* ---- accept loop ---- *)

let accept_one t =
  let fd, _addr = Unix.accept ~cloexec:true t.listen_fd in
  let refuse e =
    (try Wire.write_frame fd (Protocol.encode_reply (reject t e)) with _ -> ());
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  if draining t then
    refuse (Avq_error.Unavailable "server is draining")
  else if connections t >= t.cfg.max_connections then
    refuse
      (Avq_error.Resource_exceeded
         {
           resource = "connections";
           limit = t.cfg.max_connections;
           used = connections t + 1;
         })
  else begin
    let id = Atomic.fetch_and_add t.next_id 1 in
    let sess =
      {
        id;
        fd;
        sm = Mutex.create ();
        fd_closed = false;
        limits = { Service.no_limits with Service.sl_sid = Some id };
        prepared = Hashtbl.create 7;
        thread = None;
      }
    in
    Mutex.protect t.tm (fun () -> Hashtbl.replace t.sessions sess.id sess);
    sess.thread <- Some (Thread.create (fun () -> handler t sess) ())
  end

(* Keeps running while merely draining — connects landing in that window
   must be {e answered} with a typed [unavailable] (in [accept_one]) rather
   than left hanging in the backlog.  Only [stop] ends the loop. *)
let accept_loop t =
  let stop = ref false in
  while not !stop do
    if Atomic.get t.stopping then stop := true
    else
      match Unix.select [ t.listen_fd; t.stop_r ] [] [] 1.0 with
      | ready, _, _ ->
        if List.mem t.stop_r ready then stop := true
        else if List.mem t.listen_fd ready then (
          try accept_one t with
          | Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) -> ()
          | Unix.Unix_error _ when Atomic.get t.stopping -> stop := true)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

(* ---- lifecycle ---- *)

let start ?(config = default_config) pool =
  let svc = Service.Pool.service pool in
  let listen_fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
     Unix.bind listen_fd
       (Unix.ADDR_INET (Unix.inet_addr_of_string config.host, config.port));
     Unix.listen listen_fd 128
   with e ->
     (try Unix.close listen_fd with Unix.Unix_error _ -> ());
     raise e);
  let bound_port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> config.port
  in
  let stop_r, stop_w = Unix.pipe ~cloexec:true () in
  let t =
    {
      cfg = config;
      pool;
      svc;
      listen_fd;
      bound_port;
      stop_r;
      stop_w;
      stopping = Atomic.make false;
      stopped = Atomic.make false;
      in_flight_n = Atomic.make 0;
      admitted_n = Atomic.make 0;
      rejected_n = Atomic.make 0;
      next_id = Atomic.make 0;
      tm = Mutex.create ();
      sessions = Hashtbl.create 16;
      acceptor = None;
    }
  in
  let m = Service.metrics svc in
  Metrics.gauge m ~help:"live client sessions" "avq_server_connections" (fun () ->
      float_of_int (connections t));
  Metrics.gauge m ~help:"statements admitted and not yet replied to"
    "avq_server_in_flight" (fun () -> float_of_int (in_flight t));
  Metrics.fn_counter m ~help:"statements admitted" "avq_server_admitted_total"
    (fun () -> float_of_int (admitted t));
  Metrics.fn_counter m
    ~help:"statements or connections refused by admission control"
    "avq_server_rejected_total"
    (fun () -> float_of_int (rejected t));
  (* [avq_server_sessions] source: snapshot the live session table (the
     hashtable is tiny — max_connections entries — so copying under [tm]
     is cheap). *)
  Sysview.set_session_provider (fun () ->
      let sessions =
        Mutex.protect t.tm (fun () ->
            Hashtbl.fold (fun _ s acc -> s :: acc) t.sessions [])
      in
      List.map
        (fun sess ->
          let l = sess.limits in
          { Sysview.ss_sid = sess.id;
            ss_work_mem = Option.value ~default:(-1) l.Service.sl_work_mem;
            ss_timeout_ms =
              Option.value ~default:(-1.) l.Service.sl_timeout_ms;
            ss_spill_quota =
              Option.value ~default:(-1) l.Service.sl_spill_quota;
            ss_prepared = Hashtbl.length sess.prepared })
        sessions);
  t.acceptor <- Some (Thread.create (fun () -> accept_loop t) ());
  t

let wait_in_flight t deadline =
  while Atomic.get t.in_flight_n > 0 && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done

let stop t =
  if not (Atomic.exchange t.stopped true) then begin
    Atomic.set t.stopping true;
    (* wake and join the accept loop, then close the listener *)
    (try ignore (Unix.write t.stop_w (Bytes.of_string "x") 0 1)
     with Unix.Unix_error _ -> ());
    Option.iter Thread.join t.acceptor;
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    (* drain: in-flight statements may finish within the grace window... *)
    let grace = t.cfg.drain_grace_ms /. 1000. in
    wait_in_flight t (Unix.gettimeofday () +. grace);
    (* ...then stragglers are aborted at their next batch boundary *)
    if Atomic.get t.in_flight_n > 0 then begin
      Lifecycle.request_abort ();
      wait_in_flight t (Unix.gettimeofday () +. grace)
    end;
    (* cut the sessions (wakes any blocked reads) and join their handlers;
       each handler closes its own fd on the way out *)
    let sessions =
      Mutex.protect t.tm (fun () ->
          Hashtbl.fold (fun _ s acc -> s :: acc) t.sessions [])
    in
    List.iter shutdown_session sessions;
    List.iter (fun s -> Option.iter Thread.join s.thread) sessions;
    Sysview.clear_session_provider ();
    (try Unix.close t.stop_r with Unix.Unix_error _ -> ());
    try Unix.close t.stop_w with Unix.Unix_error _ -> ()
  end

let run t =
  let wake = Lifecycle.wake_fd () in
  while not (draining t) do
    (match Unix.select [ wake ] [] [] 0.5 with
    | [ _ ], _, _ -> Lifecycle.drain_wake ()
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
  done;
  stop t
