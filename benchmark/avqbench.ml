(* avqbench — the benchmark later changes are held to.

   [run] starts a fresh `avq serve` child per workload, drives it over TCP
   with tracing off and prints every end-to-end metric; then a separate
   traced pass replays the same seeded statements in-process and prints the
   per-layer breakdown.  The last line of stdout is one JSON object:
   correctness, statements attempted and failed, and the metrics.

   [compare] sets result files of two commits side by side. *)

open Cmdliner
open Avqbench_lib

let unit_of name =
  match Metric_defs.find name with Some d -> d.Metric_defs.unit | None -> ""

let metric_entry (name, value, samples) =
  ( name,
    Jsonv.Obj
      [ ("value", Jsonv.Num value); ("unit", Jsonv.Str (unit_of name));
        ("samples", Jsonv.Num (float_of_int samples)) ] )

let print_metric (name, value, samples) =
  Printf.printf "  %-26s %14.4f %-6s n=%d\n" name value (unit_of name) samples

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Unix.mkdir dir 0o755
  end

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  reported : (string * float * int) list;  (** what the JSON line carries *)
}

let run_workload (w : Streams.t) ~seed ~seconds ~trace ~out =
  let serve_flags = Drive.serve_args w ~data_dir:None in
  Printf.printf "== %s  seed %d  (avq %s%s)\n%!" w.Streams.name seed
    (String.concat " " serve_flags)
    (if w.Streams.durable then " --data-dir DIR --wal-fsync always" else "");
  let t0 = Unix.gettimeofday () in
  let cat = Streams.load w.Streams.db ~scale:w.Streams.scale in
  let load_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  let e2e = Drive.run w ~cat ~seed ~seconds ~out in
  let e2e_metrics = Drive.metrics w e2e in
  Printf.printf "end to end (%.0f s warm-up, %.0f s measured):\n" Drive.warmup_s seconds;
  List.iter print_metric e2e_metrics;
  List.iter
    (fun (name, p) ->
      List.iter
        (fun (m, _, n) ->
          let beyond = n - int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
          if m = name && beyond < 10 then
            Printf.printf "  note: %s has only %d samples beyond it; lengthen --seconds\n" name
              beyond)
        e2e_metrics)
    [ ("p90_ms", 90.); ("p99_ms", 99.); ("write_p99_ms", 99.) ];
  let failed_checks = List.filter (fun c -> Result.is_error c.Drive.result) e2e.Drive.checks in
  Printf.printf "checks: %d/%d passed\n"
    (List.length e2e.Drive.checks - List.length failed_checks)
    (List.length e2e.Drive.checks);
  List.iter
    (fun c ->
      match c.Drive.result with
      | Error e -> Printf.printf "  FAILED %s: %s\n" c.Drive.what e
      | Ok () -> ())
    failed_checks;
  let per_layer =
    if trace = Some false then None
    else begin
      let server_ms, gap_ms, n = Drive.server_split e2e in
      let r = Traced.run w ~cat ~seed ~load_ms ~net:(server_ms, gap_ms, n) ~out in
      Printf.printf "traced in-process pass (%d statements, spans in %s):\n"
        r.Traced.statements r.Traced.spans_file;
      List.iter print_metric r.Traced.metrics;
      let get name = List.find_map (fun (k, v, _) -> if k = name then Some v else None) in
      (match
         ( get "service.execute_ms" r.Traced.metrics, get "net.server_overhead_ms" r.Traced.metrics,
           get "net.client_gap_ms" r.Traced.metrics, get "p50_ms" e2e_metrics )
       with
       | Some ex, Some ov, Some gap, Some p50 ->
         let sum = ex +. ov +. gap in
         Printf.printf
           "  stages %.3f + server overhead %.3f + client gap %.3f = %.3f ms vs p50 %.3f ms (%+.1f%%)\n"
           ex ov gap sum p50 (100. *. (sum -. p50) /. p50)
       | _ -> ());
      Some r.Traced.metrics
    end
  in
  let result =
    Jsonv.Obj
      ([ ("workload", Jsonv.Str w.Streams.name);
         ("seed", Jsonv.Num (float_of_int seed));
         ("seconds", Jsonv.Num seconds);
         ("warmup", Jsonv.Num Drive.warmup_s);
         ("provenance", Provenance.json ~seed ~serve_args:e2e.Drive.serve_args ~out);
         ("end_to_end", Jsonv.Obj (List.map metric_entry e2e_metrics));
         ("checks",
          Jsonv.List
            (List.map
               (fun c ->
                 Jsonv.Obj
                   [ ("what", Jsonv.Str c.Drive.what);
                     ("ok", Jsonv.Bool (Result.is_ok c.Drive.result));
                     ("detail",
                      Jsonv.Str (match c.Drive.result with Ok () -> "" | Error e -> e)) ])
               e2e.Drive.checks)) ]
      @ match per_layer with
      | Some m -> [ ("per_layer", Jsonv.Obj (List.map metric_entry m)) ]
      | None -> [])
  in
  let file =
    Filename.concat out
      (Printf.sprintf "%s-seed%d-%.0f.json" w.Streams.name seed (Unix.gettimeofday () *. 1000.))
  in
  Out_channel.with_open_text file (fun oc ->
      Out_channel.output_string oc (Jsonv.to_string ~pretty:true result);
      Out_channel.output_char oc '\n');
  Printf.printf "result -> %s\n%!" file;
  let failed = Drive.failures e2e in
  let gated =
    List.filter
      (fun (name, _, _) ->
        List.exists
          (fun d -> d.Metric_defs.name = name && d.Metric_defs.gated)
          Metric_defs.end_to_end)
      e2e_metrics
  in
  {
    correct = failed_checks = [] && failed = 0;
    attempted = Drive.attempts e2e;
    failed;
    reported = (if trace = Some true then Option.get per_layer else gated);
  }

let run_cmd =
  let workloads =
    Arg.(
      value
      & opt_all (enum (List.map (fun w -> (w.Streams.name, w)) Streams.all)) []
      & info [ "workload" ] ~docv:"NAME"
          ~doc:"Run only this workload (repeatable; default: all four).")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Statement-stream seed (table contents use a fixed data seed).") in
  let seconds =
    Arg.(value & opt float 25. & info [ "seconds" ] ~docv:"S" ~doc:"Measurement window per workload.")
  in
  let trace =
    Arg.(
      value
      & opt (some (enum [ ("0", false); ("1", true) ])) None
      & info [ "trace" ] ~docv:"0|1"
          ~doc:
            "$(b,0): served run only, report end-to-end metrics.  $(b,1): also the \
             traced in-process pass, report per-layer metrics.  Default: both, \
             reporting end-to-end metrics.")
  in
  let out =
    Arg.(
      value
      & opt string (Filename.concat "benchmark" "_out")
      & info [ "out" ] ~docv:"DIR" ~doc:"Result files, span logs and scratch data directories.")
  in
  let run workloads seed seconds trace out =
    mkdir_p out;
    let ws = if workloads = [] then Streams.all else workloads in
    let results =
      List.map (fun w -> (w, run_workload w ~seed ~seconds ~trace ~out)) ws
    in
    let prefix w name = if List.length ws = 1 then name else w.Streams.name ^ "." ^ name in
    let summary =
      Jsonv.Obj
        [
          ("correct", Jsonv.Bool (List.for_all (fun (_, r) -> r.correct) results));
          ("attempted", Jsonv.Num (float_of_int (List.fold_left (fun a (_, r) -> a + r.attempted) 0 results)));
          ("failed", Jsonv.Num (float_of_int (List.fold_left (fun a (_, r) -> a + r.failed) 0 results)));
          ("metrics",
           Jsonv.Obj
             (List.concat_map
                (fun (w, r) ->
                  List.map
                    (fun (name, v, _) ->
                      (prefix w name,
                       Jsonv.Obj [ ("value", Jsonv.Num v); ("unit", Jsonv.Str (unit_of name)) ]))
                    r.reported)
                results));
        ]
    in
    print_endline (Jsonv.to_string summary);
    if not (List.for_all (fun (_, r) -> r.correct) results) then exit 1
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Serve each workload from a fresh avq process and measure it.")
    Term.(const run $ workloads $ seed $ seconds $ trace $ out)

let compare_cmd =
  let files =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"A.json... vs B.json..."
          ~doc:"Result files (or directories of them) of side A, the word $(b,vs), then side B.")
  in
  let expand path =
    if Sys.is_directory path then
      Sys.readdir path |> Array.to_list |> List.sort compare
      |> List.filter (fun f -> Filename.check_suffix f ".json")
      |> List.map (Filename.concat path)
    else [ path ]
  in
  let load path =
    match Verdict.run_of_json (Jsonv.of_string (In_channel.with_open_text path In_channel.input_all)) with
    | Some r -> r
    | None -> failwith (path ^ ": not an avqbench result file")
  in
  let run files =
    let rec split acc = function
      | "vs" :: rest -> Some (List.rev acc, rest)
      | f :: rest -> split (f :: acc) rest
      | [] -> None
    in
    match split [] files with
    | None | Some ([], _) | Some (_, []) ->
      prerr_endline "avqbench compare: expected A.json... vs B.json...";
      exit 2
    | Some (a, b) ->
      let side fs = List.map load (List.concat_map expand fs) in
      let rows = Verdict.compare (side a) (side b) in
      Format.printf "%a@?" Verdict.pp_rows rows;
      if List.exists (fun r -> r.Verdict.r_verdict = Some Verdict.Worse) rows then exit 1
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:
         "Per workload and metric: both sides' median and quartiles and a verdict \
          (better, worse, unchanged, unresolved) against the bounds BENCHMARK.json \
          lists. Exits 1 when any metric is worse.")
    Term.(const run $ files)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "avqbench" ~doc:"Served workloads and per-layer breakdown for avq.")
          [ run_cmd; compare_cmd ]))
