(* One `avq serve` child process.  Its stdout and stderr share a pipe: the
   benchmark reads the bound port from the "listening on" line, then a
   thread drains the rest so the drain summary printed at exit can be
   checked.  Children still running when the benchmark exits are killed
   and reaped. *)

let exe = "_build/default/bin/avq.exe"

type t = {
  pid : int;
  out : Buffer.t;
  lock : Mutex.t;
  mutable drainer : Thread.t option;
  mutable status : Unix.process_status option;
  port : int;
  setup_s : float;  (** spawn until a client connection got the server's Hello *)
}

let live : t list ref = ref []

let reap t =
  if t.status = None then begin
    let _, st = Unix.waitpid [] t.pid in
    t.status <- Some st;
    Option.iter Thread.join t.drainer;
    live := List.filter (fun c -> c.pid <> t.pid) !live
  end

let () =
  at_exit (fun () ->
      List.iter
        (fun t ->
          (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
          reap t)
        !live)

let output t = Mutex.protect t.lock (fun () -> Buffer.contents t.out)

(* Append one read's worth of output; false at EOF. *)
let pump lock out fd =
  let chunk = Bytes.create 4096 in
  match Unix.read fd chunk 0 (Bytes.length chunk) with
  | 0 -> false
  | n ->
    Mutex.protect lock (fun () -> Buffer.add_subbytes out chunk 0 n);
    true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> true

let listening_port text =
  List.find_map
    (fun line ->
      match Scanf.sscanf line "avq serve: listening on %[^:]:%d" (fun _ p -> p) with
      | p -> Some p
      | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> None)
    (String.split_on_char '\n' text)

exception Failed_to_start of string

(* The slowest workload's server starts in ~3 s; a run must end within
   180 s whatever the server does. *)
let start_timeout_s = 60.

let start args =
  if not (Sys.file_exists exe) then
    raise (Failed_to_start (exe ^ " is missing: build the server first (dune build)"));
  let rd, wr = Unix.pipe ~cloexec:true () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let t0 = Unix.gettimeofday () in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) devnull wr wr in
  Unix.close wr;
  Unix.close devnull;
  let out = Buffer.create 256 and lock = Mutex.create () in
  let fail msg =
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid);
    Unix.close rd;
    raise
      (Failed_to_start
         (Printf.sprintf "%s (avq %s): %s" msg (String.concat " " args)
            (Mutex.protect lock (fun () -> Buffer.contents out))))
  in
  let rec await_port () =
    match listening_port (Mutex.protect lock (fun () -> Buffer.contents out)) with
    | Some p -> p
    | None ->
      let left = start_timeout_s -. (Unix.gettimeofday () -. t0) in
      if left <= 0. then fail "no listening line"
      else (
        match Unix.select [ rd ] [] [] left with
        | [], _, _ -> fail "no listening line"
        | _ -> if pump lock out rd then await_port () else fail "exited during startup"
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> await_port ())
  in
  let port = await_port () in
  let setup_s =
    match Client.connect ~port () with
    | c ->
      let s = Unix.gettimeofday () -. t0 in
      Client.close c;
      s
    | exception e -> fail ("no Hello: " ^ Printexc.to_string e)
  in
  let t = { pid; out; lock; drainer = None; status = None; port; setup_s } in
  t.drainer <-
    Some
      (Thread.create
         (fun () ->
           while pump lock out rd do
             ()
           done;
           Unix.close rd)
         ());
  live := t :: !live;
  t

(* Resident set ("VmRSS") in MiB, from /proc. *)
let rss_mb t =
  let path = Printf.sprintf "/proc/%d/status" t.pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> None
  | status ->
    List.find_map
      (fun line ->
        match Scanf.sscanf line "VmRSS: %d kB" Fun.id with
        | kb -> Some (float_of_int kb /. 1024.)
        | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> None)
      (String.split_on_char '\n' status)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* SIGTERM and wait: a healthy server drains, exits 0 and reports no live
   temp files. *)
let drain t =
  Unix.kill t.pid Sys.sigterm;
  reap t;
  let text = output t in
  match t.status with
  | Some (Unix.WEXITED 0) ->
    if contains text "live temps: 0" then Ok ()
    else Error ("no \"live temps: 0\" in drain output: " ^ text)
  | Some (Unix.WEXITED n) -> Error (Printf.sprintf "exited %d: %s" n text)
  | Some (Unix.WSIGNALED s | Unix.WSTOPPED s) ->
    Error (Printf.sprintf "killed by signal %d" s)
  | None -> Error "not reaped"

let kill t =
  Unix.kill t.pid Sys.sigkill;
  reap t
