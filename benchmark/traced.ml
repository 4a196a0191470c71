(* The traced pass: the workload's seeded statement stream replayed
   in-process against the same catalog, timing each call into a layer's
   public functions from outside.  Spans are kept in memory and written as
   JSONL when the pass ends.

   Each replayed read is one "statement" span whose children are the stages
   a served statement goes through — service.prepare, service.plan,
   exec.run, net.render — so its self time is what no stage covers.
   Measurements that repeat work (bind alone, a fresh optimization, a
   matview decision, a pool round trip) hang under separate "probe" spans
   and are excluded from the statement totals. *)

open Avqbench_lib

type span = {
  trace_id : int;
  span_id : int;
  parent : int option;
  name : string;
  start : float;
  dur_ms : float;
  attrs : (string * Jsonv.t) list;
}

let spans : span list ref = ref []
let next_id = ref 0

let timed ~trace_id ?parent ?(attrs = fun _ -> []) name f =
  let id = !next_id in
  incr next_id;
  let t0 = Unix.gettimeofday () in
  let v = f id in
  let dur_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  spans := { trace_id; span_id = id; parent; name; start = t0; dur_ms; attrs = attrs v } :: !spans;
  v

let span_json s =
  Jsonv.Obj
    [
      ("trace_id", Jsonv.Num (float_of_int s.trace_id));
      ("span_id", Jsonv.Num (float_of_int s.span_id));
      ("parent", match s.parent with Some p -> Jsonv.Num (float_of_int p) | None -> Jsonv.Null);
      ("name", Jsonv.Str s.name);
      ("start_us", Jsonv.Num (Float.round (s.start *. 1e6)));
      ("dur_us", Jsonv.Num (s.dur_ms *. 1000.));
      ("attrs", Jsonv.Obj s.attrs);
    ]

let num x = Jsonv.Num x
let int n = Jsonv.Num (float_of_int n)

let is_hit (p : Service.planned) =
  match p.Service.source with
  | Service.Hit | Service.Hit_rebound -> true
  | _ -> false

let rewrite_label = function
  | Matview.No_views -> "no-views"
  | Matview.No_match -> "no-match"
  | Matview.Stale _ -> "stale"
  | Matview.Chosen _ -> "chosen"
  | Matview.Rejected_cost _ -> "rejected"
  | Matview.From_cache _ -> "from-cache"

(* What the server does after execution: render the relation and frame the
   reply. *)
let render (p : Service.planned) rel =
  Protocol.encode_reply
    (Protocol.Result
       { source = Service.source_label p.Service.source; rows = Relation.cardinality rel;
         ms = 0.; body = Format.asprintf "%a" Relation.pp rel })

type session = { svc : Service.t; ctx : Exec_ctx.t; wal : Wal.writer }

let meta (w : Streams.t) =
  Printf.sprintf "db=%s;scale=%d;seed=%d" (Streams.db_flag w.Streams.db) w.Streams.scale
    Streams.data_seed

(* A service over a recovered data directory, as `avq serve --data-dir`
   builds it. *)
let open_session (w : Streams.t) ~dir ~load =
  Drive.rm_rf dir;
  let cat, mviews, wal, _ =
    Recovery.recover ~data_dir:dir ~fsync_mode:Wal.Fsync_always ~meta:(meta w) ~seed:load ()
  in
  let svc = Service.create ~mviews cat in
  Service.attach_wal svc ~data_dir:dir wal;
  Option.iter (fun ddl -> ignore (Service.exec_statement svc ddl)) w.Streams.matview;
  { svc; ctx = Exec_ctx.create cat; wal }

let run_read s sql =
  let stmt = Service.prepare s.svc sql in
  let p = Service.plan s.svc stmt in
  Exec_ctx.begin_statement s.ctx;
  let rel, _ = Executor.run_measured ~cold:false s.ctx p.Service.plan in
  ignore (render p rel)

(* Untimed replay: the same calls with one clock around the whole stream. *)
let replay_untimed s stream =
  let t0 = Unix.gettimeofday () in
  List.iter
    (function
      | Streams.Read sql -> run_read s sql
      | Streams.Write sql -> ignore (Service.exec_statement s.svc sql))
    stream;
  (Unix.gettimeofday () -. t0) *. 1000.

let traced_insert s ~trace_id ?parent sql =
  timed ~trace_id ?parent "service.insert"
    ~attrs:(fun (fsyncs, bytes) -> [ ("fsyncs", int fsyncs); ("wal_bytes", int bytes) ])
    (fun _ ->
      let before = Wal.stats s.wal in
      ignore (Service.exec_statement s.svc sql);
      let after = Wal.stats s.wal in
      (after.Wal.fsyncs - before.Wal.fsyncs, after.Wal.appended_bytes - before.Wal.appended_bytes))

let traced_read s ~trace_id sql =
  let p =
    timed ~trace_id "statement" (fun root ->
        let stmt = timed ~trace_id ~parent:root "service.prepare" (fun _ -> Service.prepare s.svc sql) in
        let p =
          timed ~trace_id ~parent:root "service.plan"
            ~attrs:(fun (p : Service.planned) ->
              [ ("source", Jsonv.Str (Service.source_label p.Service.source));
                ("opt_ms", num p.Service.opt_ms);
                ("rewrite", Jsonv.Str (rewrite_label p.Service.rewrite)) ])
            (fun _ -> Service.plan s.svc stmt)
        in
        let rel =
          timed ~trace_id ~parent:root "exec.run"
            ~attrs:(fun (rel, (io : Buffer_pool.stats)) ->
              [ ("rows_out", int (Relation.cardinality rel)); ("reads", int io.Buffer_pool.reads);
                ("hits", int io.Buffer_pool.hits); ("writes", int io.Buffer_pool.writes) ])
            (fun _ ->
              Exec_ctx.begin_statement s.ctx;
              Executor.run_measured ~cold:false s.ctx p.Service.plan)
          |> fst
        in
        ignore
          (timed ~trace_id ~parent:root "net.render"
             ~attrs:(fun reply -> [ ("bytes", int (String.length reply)) ])
             (fun _ -> render p rel));
        p)
  in
  timed ~trace_id "probe" (fun probe ->
      let cat = Service.catalog s.svc in
      let q = timed ~trace_id ~parent:probe "sql.bind" (fun _ -> Binder.bind_sql cat sql) in
      if not (is_hit p) then begin
        ignore
          (timed ~trace_id ~parent:probe "core.optimize"
             ~attrs:(fun (r : Optimizer.result) ->
               [ ("dp_entries", int r.Optimizer.search.Search_stats.entries) ])
             (fun _ -> Optimizer.optimize cat q));
        ignore
          (timed ~trace_id ~parent:probe "matview.optimize"
             ~attrs:(fun (_, d) -> [ ("decision", Jsonv.Str (rewrite_label d)) ])
             (fun _ -> Matview.optimize cat (Service.matviews s.svc) q))
      end)

(* Pool hand-off: raw SQL through a worker domain against the same
   statement prepared and executed on this thread, both on a warm cache.
   Run after the traced replay, so no idle worker domain takes part in that
   replay's garbage collections. *)
let pool_probe s pool ~trace_id sql =
  ignore (Service.execute_on s.ctx s.svc (Service.prepare s.svc sql));
  timed ~trace_id "probe" (fun probe ->
      let t0 = Unix.gettimeofday () in
      timed ~trace_id ~parent:probe "service.execute_on" (fun _ ->
          ignore (Service.execute_on s.ctx s.svc (Service.prepare s.svc sql)));
      let direct_ms = (Unix.gettimeofday () -. t0) *. 1000. in
      ignore
        (timed ~trace_id ~parent:probe "service.pool_submit"
           ~attrs:(fun pooled_ms -> [ ("pool_wait_ms", num (pooled_ms -. direct_ms)) ])
           (fun _ ->
             let t0 = Unix.gettimeofday () in
             ignore (Service.Pool.await (Service.Pool.submit_sql pool sql));
             (Unix.gettimeofday () -. t0) *. 1000.)))

type result = {
  metrics : (string * float * int) list;  (** per-layer name, value, samples *)
  statements : int;
  spans_file : string;
}

let by_name name = List.filter (fun s -> String.equal s.name name) !spans
let durs name = List.map (fun s -> s.dur_ms) (by_name name)

let attr_num key s =
  match List.assoc_opt key s.attrs with Some (Jsonv.Num x) -> Some x | _ -> None

let attr_str key s =
  match List.assoc_opt key s.attrs with Some (Jsonv.Str x) -> Some x | _ -> None

let attr_nums name key = List.filter_map (attr_num key) (by_name name)

let p99 xs = Quantiles.percentile (Quantiles.sorted xs) 99.

let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den

let run (w : Streams.t) ~cat ~seed ~load_ms ~net:(server_ms, client_gap_ms, net_n) ~out =
  spans := [];
  next_id := 0;
  let stream = Streams.replay_stream w cat ~seed in
  let dir tag = Filename.concat out (Printf.sprintf "trace-%s-%s" w.Streams.name tag) in
  let load () = Streams.load w.Streams.db ~scale:w.Streams.scale in
  (* Read-only workloads replay on the catalog the correctness gate used;
     a workload that writes gets a freshly loaded one per replay. *)
  let session tag =
    open_session w ~dir:(dir tag) ~load:(if w.Streams.durable then load else fun () -> cat)
  in
  let untimed tag =
    let s = session tag in
    let ms = replay_untimed s stream in
    Wal.close s.wal;
    ms
  in
  let untimed_a = untimed "a" in
  let s = session "b" in
  List.iteri
    (fun i st ->
      match st with
      | Streams.Read sql -> traced_read s ~trace_id:i sql
      | Streams.Write sql ->
        timed ~trace_id:i "statement" (fun root ->
            ignore (traced_insert s ~trace_id:i ~parent:root sql)))
    stream;
  let untimed_b = untimed "c" in
  Service.Pool.with_pool ~workers:1 s.svc (fun pool ->
      List.iteri
        (fun i st ->
          match st with
          | Streams.Read sql when i mod 20 = 0 -> pool_probe s pool ~trace_id:i sql
          | _ -> ())
        stream);
  let n = List.length stream in
  (* The write path on every workload: its own INSERTs on ingest_mix, a
     20-statement probe into the fact table elsewhere. *)
  if w.Streams.write_rate = None then
    for k = 0 to 19 do
      timed ~trace_id:(n + k) "probe" (fun probe ->
          ignore (traced_insert s ~trace_id:(n + k) ~parent:probe
                    (Streams.insert_sql w cat ~seed (10_000 + k))))
    done;
  let rows =
    match Parser.parse_script (Streams.insert_sql w cat ~seed 20_000) with
    | [ Sql_ast.S_insert { it_table; it_rows } ] -> Binder.bind_insert cat ~table:it_table it_rows
    | _ -> []
  in
  let scratch = Wal.open_writer ~fsync_mode:Wal.Fsync_always (Filename.concat (dir "b") "scratch.wal") in
  for k = 0 to 19 do
    timed ~trace_id:(n + 20 + k) "wal.append_commit" (fun _ ->
        Wal.commit scratch (Wal.append scratch (Wal.Insert { table = w.Streams.fact; rows })))
  done;
  Wal.close scratch;
  Wal.close s.wal;
  timed ~trace_id:(n + 40) "wal.recovery" (fun _ ->
      let _, _, wal, _ =
        Recovery.recover ~data_dir:(dir "b") ~fsync_mode:Wal.Fsync_always ~meta:(meta w)
          ~seed:load ()
      in
      Wal.close wal);
  List.iter (fun tag -> Drive.rm_rf (dir tag)) [ "a"; "b"; "c" ];
  (* ---- per-layer metrics from the spans ---- *)
  let med = Quantiles.median in
  let plans = by_name "service.plan" in
  let hit s = match attr_str "source" s with Some ("hit" | "hit-rebound") -> true | _ -> false in
  let hits = List.filter hit plans and misses = List.filter (fun s -> not (hit s)) plans in
  let roots = by_name "statement" in
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s -> Option.iter (fun p -> Hashtbl.add children p s) s.parent)
    !spans;
  let stage_ms root =
    List.fold_left
      (fun acc c ->
        if List.mem c.name [ "service.prepare"; "service.plan"; "exec.run" ] then acc +. c.dur_ms
        else acc)
      0. (Hashtbl.find_all children root.span_id)
  in
  let reads = List.filter (fun r -> Hashtbl.find_all children r.span_id |> List.exists (fun c -> c.name = "exec.run")) roots in
  let execute = List.map stage_ms reads in
  let inserts = by_name "service.insert" in
  let runs = by_name "exec.run" in
  let sum key = List.fold_left (fun acc s -> acc +. Option.value ~default:0. (attr_num key s)) 0. in
  let hits_io = sum "hits" runs and reads_io = sum "reads" runs in
  let decisions = List.filter_map (attr_str "decision") (by_name "matview.optimize") in
  let attempted = List.filter (fun d -> d <> "no-views") decisions in
  let total = List.fold_left (fun acc r -> acc +. r.dur_ms) 0. roots in
  let covered =
    List.fold_left
      (fun acc r ->
        acc +. List.fold_left (fun a c -> a +. c.dur_ms) 0. (Hashtbl.find_all children r.span_id))
      0. roots
  in
  let untimed_ms = (untimed_a +. untimed_b) /. 2. in
  let count xs = List.length xs in
  let metrics =
    [
      ("net.server_ms", server_ms, net_n);
      ("net.server_overhead_ms", server_ms -. med execute, net_n);
      ("net.client_gap_ms", client_gap_ms, net_n);
      ("net.render_ms", med (durs "net.render"), count (durs "net.render"));
      ("net.reply_bytes", med (attr_nums "net.render" "bytes"), count (durs "net.render"));
      ("sql.bind_ms", med (durs "sql.bind"), count (durs "sql.bind"));
      ("service.prepare_ms", med (durs "service.prepare"), count (durs "service.prepare"));
      ("service.plan_hit_ms", med (List.map (fun s -> s.dur_ms) hits), count hits);
      ("service.plan_miss_ms", med (List.map (fun s -> s.dur_ms) misses), count misses);
      ("service.plan_miss_ms.p99", p99 (List.map (fun s -> s.dur_ms) misses), count misses);
      ("service.plan_hit_ratio", ratio (count hits) (count plans), count plans);
      ("service.execute_ms", med execute, count execute);
      ("service.pool_wait_ms", med (attr_nums "service.pool_submit" "pool_wait_ms"),
       count (by_name "service.pool_submit"));
      ("service.insert_ms", med (durs "service.insert"), count inserts);
      ("core.optimize_ms", med (durs "core.optimize"), count (durs "core.optimize"));
      ("core.optimize_ms.p99", p99 (durs "core.optimize"), count (durs "core.optimize"));
      ("core.dp_entries", med (attr_nums "core.optimize" "dp_entries"), count (durs "core.optimize"));
      ("matview.optimize_ms", med (durs "matview.optimize"), count decisions);
      ("matview.rewrite_ratio",
       ratio (count (List.filter (( = ) "chosen") attempted)) (count attempted),
       count attempted);
      ("exec.run_ms", med (durs "exec.run"), count runs);
      ("exec.run_ms.p99", p99 (durs "exec.run"), count runs);
      ("exec.rows_out", med (attr_nums "exec.run" "rows_out"), count runs);
      ("exec.pages_touched",
       med (List.map (fun s -> Option.value ~default:0. (attr_num "reads" s)
                               +. Option.value ~default:0. (attr_num "hits" s)) runs),
       count runs);
      ("storage.pool_hit_ratio",
       (if hits_io +. reads_io = 0. then 1. else hits_io /. (hits_io +. reads_io)),
       count runs);
      ("wal.append_commit_ms", med (durs "wal.append_commit"), count (durs "wal.append_commit"));
      ("wal.fsyncs_per_insert", sum "fsyncs" inserts /. float_of_int (max 1 (count inserts)),
       count inserts);
      ("wal.bytes_per_row", sum "wal_bytes" inserts /. float_of_int (max 1 (2 * count inserts)),
       count inserts);
      ("wal.recovery_ms", med (durs "wal.recovery"), 1);
      ("catalog.load_ms", load_ms, 1);
      ("trace.unaccounted_pct", 100. *. (total -. covered) /. total, count roots);
      ("trace.overhead_pct", 100. *. (total -. untimed_ms) /. untimed_ms, count roots);
    ]
  in
  let spans_file =
    Filename.concat out (Printf.sprintf "%s-seed%d.spans.jsonl" w.Streams.name seed)
  in
  Out_channel.with_open_text spans_file (fun oc ->
      List.iter
        (fun s ->
          Out_channel.output_string oc (Jsonv.to_string (span_json s));
          Out_channel.output_char oc '\n')
        (List.rev !spans));
  { metrics; statements = n; spans_file }
