(* The served run: `avq serve` in its own process, tracing off, driven over
   TCP by one client thread per connection; then the correctness gate. *)

open Avqbench_lib

let now = Unix.gettimeofday

type outcome =
  | Reply of { server_ms : float; rows : int; body : string option }
  | Failed of string

type record = {
  write : bool;
  sql : string;
  due : float;  (** when it was due: the send time in a closed loop *)
  send : float;
  recv : float;
  outcome : outcome;
}

type check = { what : string; result : (unit, string) result }

type t = {
  serve_args : string list;
  setups : float list;  (** spawn-to-Hello seconds of every server started *)
  records : record list;
  warm_end : float;
  until : float;
  rss_mb : float list;  (** the server's resident set, sampled over the window *)
  recovery_s : float option;
  checks : check list;
}

let serve_args (w : Streams.t) ~data_dir =
  [ "serve"; "-d"; Streams.db_flag w.Streams.db; "-s"; string_of_int w.Streams.scale;
    "--seed"; string_of_int Streams.data_seed; "--port"; "0"; "--workers"; "2"; "--dop"; "1" ]
  @ match data_dir with
  | Some d -> [ "--data-dir"; d; "--wal-fsync"; "always" ]
  | None -> []

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let query c sql ~keep_body =
  match Client.query c sql with
  | Protocol.Result { ms; rows; body; _ } ->
    Reply { server_ms = ms; rows; body = (if keep_body then Some body else None) }
  | Protocol.Err { kind; detail } -> Failed (kind ^ ": " ^ detail)
  | Protocol.Hello _ -> Failed "unexpected Hello reply"

(* Send [sql] timed; a transport failure ends the connection's loop. *)
let timed_query c ~write ~due ~keep_body sql =
  let send = now () in
  let outcome, alive =
    match query c sql ~keep_body with
    | o -> (o, true)
    | exception e -> (Failed (Printexc.to_string e), false)
  in
  ({ write; sql; due = (if write then due else send); send; recv = now (); outcome }, alive)

let on_conn port f =
  match Client.connect ~port () with
  | c -> Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)
  | exception e ->
    let t = now () in
    [ { write = false; sql = "(connect)"; due = t; send = t; recv = t;
        outcome = Failed (Printexc.to_string e) } ]

(* Closed loop: the next statement goes out when the reply lands. *)
let closed_loop ~port ~next ~until ~sample =
  on_conn port (fun c ->
      let acc = ref [] and i = ref 0 and alive = ref true in
      while !alive && now () < until do
        let r, ok = timed_query c ~write:false ~due:0. ~keep_body:(sample !i) (next ()) in
        acc := r :: !acc;
        alive := ok;
        incr i
      done;
      !acc)

(* Open loop: the k-th statement is due at [start + k / rate] whatever the
   replies do, and is timed from then. *)
let open_loop ~port ~rate ~start ~until ~sql_of =
  on_conn port (fun c ->
      let acc = ref [] and k = ref 0 and alive = ref true in
      while !alive && start +. (float_of_int !k /. rate) < until do
        let due = start +. (float_of_int !k /. rate) in
        let wait = due -. now () in
        if wait > 0. then Thread.delay wait;
        let r, ok = timed_query c ~write:true ~due ~keep_body:false (sql_of !k) in
        acc := r :: !acc;
        alive := ok;
        incr k
      done;
      !acc)

let in_thread f =
  let result = ref [] in
  let th = Thread.create (fun () -> result := f ()) () in
  fun () ->
    Thread.join th;
    !result

let count_sql table = Printf.sprintf "SELECT COUNT(*) AS n FROM %s x" table

let reply_check what (r : record) reference =
  match r.outcome with
  | Failed e -> { what; result = Error e }
  | Reply { rows; body = Some body; _ } -> { what; result = Oracle.check ~rows ~body reference }
  | Reply { body = None; _ } -> { what; result = Error "no body kept" }

(* Read workloads: every sampled reply must equal the reference evaluated
   on the in-process catalog loaded from the same data seed. *)
let sample_checks cat records =
  let refs = Hashtbl.create 64 in
  List.filter_map
    (fun r ->
      match r.outcome with
      | Reply { body = Some _; _ } ->
        let reference =
          match Hashtbl.find_opt refs r.sql with
          | Some x -> x
          | None ->
            let x = Oracle.reference cat r.sql in
            Hashtbl.add refs r.sql x;
            x
        in
        Some (reply_check ("sampled reply: " ^ r.sql) r reference)
      | _ -> None)
    records

let single_int rel =
  match Relation.tuples rel with [ [| Value.Int n |] ] -> n | _ -> -1

let drained what server = { what; result = Child.drain server }

(* Excluded from the measurement: the plan cache fills and the buffer pool
   warms in the first statements. *)
let warmup_s = 3.

(* Set-up time is the median over the measured server and probe servers
   started and drained before the window: at least two probes, then more
   until twenty or 2 s.  A small catalog's spawn takes 25-70 ms and about
   one in four is slow; over 210 spawns in a row, medians of 21 varied
   half as much as medians of 5.  A spawn of seconds averages that out by
   itself and gets two. *)
let max_probes = 20
let probe_budget_s = 2.

let run (w : Streams.t) ~cat ~seed ~seconds ~out =
  let data_dir tag =
    if w.Streams.durable then begin
      let d = Filename.concat out (Printf.sprintf "data-%s-%s" w.Streams.name tag) in
      rm_rf d;
      Some d
    end
    else None
  in
  let probe i =
    let tag = Printf.sprintf "probe%d" i in
    let dir = data_dir tag in
    let s = Child.start (serve_args w ~data_dir:dir) in
    let c = drained ("set-up " ^ tag ^ " drains cleanly") s in
    Option.iter rm_rf dir;
    (s.Child.setup_s, c)
  in
  let probes =
    let t0 = now () in
    let rec go acc i =
      if i >= max_probes || (i >= 2 && now () -. t0 >= probe_budget_s) then List.rev acc
      else go (probe i :: acc) (i + 1)
    in
    go [] 0
  in
  let dir = data_dir "run" in
  let args = serve_args w ~data_dir:dir in
  let server = Child.start args in
  let ddl =
    match w.Streams.matview with
    | None -> []
    | Some sql ->
      on_conn server.Child.port (fun c ->
          [ fst (timed_query c ~write:false ~due:0. ~keep_body:false sql) ])
  in
  let start = now () in
  let warm_end = start +. warmup_s in
  let until = warm_end +. seconds in
  let readers =
    List.init w.Streams.read_conns (fun conn ->
        let next = Streams.reads w cat ~seed ~conn in
        in_thread (fun () ->
            closed_loop ~port:server.Child.port ~next ~until
              ~sample:(fun i -> (not w.Streams.durable) && i mod 50 = 0)))
  in
  let writer =
    Option.map
      (fun rate ->
        in_thread (fun () ->
            open_loop ~port:server.Child.port ~rate ~start ~until
              ~sql_of:(Streams.insert_sql w cat ~seed)))
      w.Streams.write_rate
  in
  (* Memory is the median of the server's resident set sampled across the
     window: its peak jumps by 2x between identical adhoc_views runs,
     depending on which large intermediate results coincide with a GC. *)
  let rss =
    in_thread (fun () ->
        let samples = ref [] in
        while now () < until do
          if now () >= warm_end then
            Option.iter (fun mb -> samples := mb :: !samples) (Child.rss_mb server);
          Thread.delay 0.5
        done;
        !samples)
  in
  let load = List.concat_map (fun j -> j ()) (readers @ Option.to_list writer) in
  let records = ddl @ load in
  let rss_mb = rss () in
  let checks, extra, recovery_s =
    if not w.Streams.durable then
      ([ drained "server drains cleanly" server ], [], None)
    else begin
      (* Durable writes: the acknowledged INSERTs must all be there before a
         crash and after recovery, and the view-answered GROUP BY must match
         the reference over the same rows. *)
      let state port =
        on_conn port (fun c ->
            List.map
              (fun sql -> fst (timed_query c ~write:false ~due:0. ~keep_body:true sql))
              [ count_sql w.Streams.fact; Streams.by_dept_query ])
      in
      let before = state server.Child.port in
      Child.kill server;
      let restarted = Child.start args in
      let after = state restarted.Child.port in
      let drain = drained "recovered server drains cleanly" restarted in
      Option.iter rm_rf dir;
      let acked =
        List.filter_map
          (fun r ->
            match r.outcome with Reply _ when r.write -> Some r.sql | _ -> None)
          load
      in
      let seed_rows = single_int (Oracle.reference cat (count_sql w.Streams.fact)) in
      let expected = Oracle.after_inserts w acked in
      let count_ref = Oracle.reference expected (count_sql w.Streams.fact) in
      let group_ref = Oracle.reference expected Streams.by_dept_query in
      let arithmetic =
        let want = seed_rows + (2 * List.length acked) and got = single_int count_ref in
        { what = "reference row count = seed rows + 2 x acknowledged INSERTs";
          result =
            (if want = got then Ok ()
             else Error (Printf.sprintf "%d seed rows + %d inserts, reference has %d"
                           seed_rows (List.length acked) got)) }
      in
      let state_checks label = function
        | [ count; group ] ->
          [ reply_check (label ^ ": COUNT(*) = seed rows + 2 x acknowledged") count count_ref;
            reply_check (label ^ ": covered GROUP BY matches the reference") group group_ref ]
        | rs ->
          List.map (fun r -> reply_check (label ^ ": state query") r count_ref) rs
      in
      ( (arithmetic :: state_checks "before SIGKILL" before)
        @ state_checks "after recovery" after @ [ drain ],
        before @ after,
        Some restarted.Child.setup_s )
    end
  in
  {
    serve_args = args;
    setups = List.map fst probes @ [ server.Child.setup_s ];
    records = records @ extra;
    warm_end;
    until;
    rss_mb;
    recovery_s;
    checks = List.map snd probes @ checks @ sample_checks cat load;
  }

(* ---- metrics ---- *)

let measured t = List.filter (fun r -> r.due >= t.warm_end && r.due < t.until) t.records

let ok_latencies_ms rs =
  List.filter_map
    (fun r -> match r.outcome with Reply _ -> Some ((r.recv -. r.due) *. 1000.) | Failed _ -> None)
    rs

let failures t =
  List.length (List.filter (fun r -> match r.outcome with Failed _ -> true | Reply _ -> false) t.records)
  + List.length (List.filter (fun c -> Result.is_error c.result) t.checks)

let attempts t = List.length t.records + List.length t.checks

(* (name, value, samples) for every end-to-end metric this run measured. *)
let metrics (w : Streams.t) t =
  let m = measured t in
  (* Statements due in the window over the time until the last of them
     completed.  A median over one-second slices of the window was tried
     and varied more between seeds: the host's speed drifts over tens of
     seconds, not within a run. *)
  let completed = List.filter (fun r -> match r.outcome with Reply _ -> true | Failed _ -> false) m in
  let last = List.fold_left (fun acc r -> Float.max acc r.recv) t.warm_end completed in
  let lat = Quantiles.sorted (ok_latencies_ms m) in
  let n = Array.length lat in
  let wlat = Quantiles.sorted (ok_latencies_ms (List.filter (fun r -> r.write) m)) in
  let nw = Array.length wlat in
  [
    ("throughput_sps", float_of_int (List.length completed) /. (last -. t.warm_end),
     List.length completed);
    ("p50_ms", Quantiles.percentile lat 50., n);
    ("p90_ms", Quantiles.percentile lat 90., n);
    ("p99_ms", Quantiles.percentile lat 99., n);
    ("setup_s", Quantiles.median t.setups, List.length t.setups);
    ("server_rss_mb", Quantiles.median t.rss_mb, List.length t.rss_mb);
    ("error_rate", float_of_int (failures t) /. float_of_int (attempts t), attempts t);
  ]
  @ (if w.Streams.write_rate = None then []
     else
       [ ("write_p50_ms", Quantiles.percentile wlat 50., nw);
         ("write_p99_ms", Quantiles.percentile wlat 99., nw) ])
  @ match t.recovery_s with Some s -> [ ("recovery_s", s, 1) ] | None -> []

(* Medians of the server-reported time and of what the client saw beyond
   it, over measured reads (the net layer's share of the served run). *)
let server_split t =
  let reads =
    List.filter_map
      (fun r ->
        match r.outcome with
        | Reply { server_ms; _ } when not r.write ->
          Some (server_ms, ((r.recv -. r.send) *. 1000.) -. server_ms)
        | _ -> None)
      (measured t)
  in
  (Quantiles.median (List.map fst reads), Quantiles.median (List.map snd reads), List.length reads)
