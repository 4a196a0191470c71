(* E19 — morsel-driven intra-query parallelism.

   Not a paper experiment: like E14 this tracks the repo's CPU-side perf
   trajectory.  The E14 scan->filter->group pipeline (75k lineitem rows)
   and a scan->join->group pipeline (lineitem ⋈ orders, grouped by part)
   run serial and through the exchange operator at dop 1, 2 and 4;
   outputs must stay byte-identical at every dop.  On the scan->filter->
   group pipeline, dop 1 through the exchange must cost < 10% over the bare
   serial plan, and a multi-core host must show >= 2x rows/sec at dop 4.
   Diverging output fails the run (non-zero exit); the timing half of the
   verdict is informational, and on a single-core host its scaling check
   is waived. *)

let col q n = Schema.column ~qual:q n Datatype.Int
let le q n v = Expr.Cmp (Expr.Le, Expr.Col (col q n), Expr.Const (Value.Int v))
let sum q n out = Aggregate.make Aggregate.Sum ~arg:(Expr.Col (col q n)) out

(* Interleaved trials scored by median, as in E14: machine-load drift hits
   every configuration equally. *)
let time_round n fs =
  let ts = Array.make_matrix (List.length fs) n 0. in
  for i = 0 to n - 1 do
    List.iteri
      (fun j f ->
        let t0 = Unix.gettimeofday () in
        f ();
        ts.(j).(i) <- Unix.gettimeofday () -. t0)
      fs
  done;
  List.mapi
    (fun j _ ->
      let row = ts.(j) in
      Array.sort compare row;
      row.(n / 2))
    fs

(* Time one pipeline serial and at dop 1, 2 and 4, record and print it;
   returns whether every parallel output is byte-identical to serial. *)
let pipeline ctx ~name ~title ~input_rows serial =
  let plans =
    ("serial", 0, serial)
    :: List.map
         (fun d ->
           (Printf.sprintf "dop%d" d, d, Exchange.parallelize ~dop:d serial))
         [ 1; 2; 4 ]
  in
  let run_plan p = Executor.run ctx p in
  (* Correctness first: every parallel plan byte-identical to serial. *)
  let reference = run_plan serial in
  let identical =
    List.for_all
      (fun (_, _, p) ->
        let r = run_plan p in
        let ta = Relation.tuples reference and tb = Relation.tuples r in
        List.length ta = List.length tb && List.for_all2 Tuple.equal ta tb)
      plans
  in
  (* Warm the pool, then interleave 7 timed trials of each configuration. *)
  List.iter (fun (_, _, p) -> ignore (run_plan p)) plans;
  let medians =
    time_round 7 (List.map (fun (_, _, p) () -> ignore (run_plan p)) plans)
  in
  let rps t = float_of_int input_rows /. t in
  let timed =
    List.map2 (fun (name, d, _) t -> (name, d, t, rps t)) plans medians
  in
  let base = match timed with (_, _, _, r) :: _ -> r | [] -> 0. in
  List.iter
    (fun (plan, d, t, r) ->
      Bench_util.Json.record
        ~name:(Printf.sprintf "tpcd.%s.%s" name plan)
        ~config:
          [
            ("engine", if d = 0 then "batch" else "exchange");
            ("dop", string_of_int (max 1 d));
            ("input_rows", string_of_int input_rows);
            ("cores", string_of_int (Domain.recommended_domain_count ()));
          ]
        ~io:0 ~wall_ms:(t *. 1000.) ~rows_per_sec:r ())
    timed;
  Bench_util.print_table ~title
    ~header:[ "plan"; "rows_in"; "M rows/s"; "vs serial"; "identical" ]
    (List.map
       (fun (plan, _, _, r) ->
         [
           plan;
           Bench_util.i input_rows;
           Printf.sprintf "%.2fM" (r /. 1e6);
           Bench_util.f2 (r /. base);
           (if identical then "yes" else "NO");
         ])
       timed);
  (identical, timed, plans)

let run () =
  let cat =
    Tpcd.load
      ~params:
        {
          Tpcd.default_params with
          customers = 3000;
          orders_per_customer = 5;
          lines_per_order = 5;
          parts = 500;
          frames = 4096;
        }
      ()
  in
  let input_rows = 3000 * 5 * 5 in
  let group input =
    Physical.Hash_group
      {
        Physical.input;
        agg_qual = "g";
        keys = [ col "l" "pk" ];
        aggs = [ sum "l" "price" "rev" ];
        having = [];
      }
  in
  let ctx = Exec_ctx.create ~work_mem:256 cat in
  let scan_identical, timed, plans =
    pipeline ctx ~name:"scan_filter_group" ~input_rows
      ~title:"E19: morsel-driven parallel scan+group"
      (group
         (Physical.Seq_scan
            { alias = "l"; table = "lineitem"; filter = [ le "l" "qty" 5 ] }))
  in
  (* The paper's push-down shape: a group-by over a hash join whose build
     side (orders) fits in work_mem, so every morsel probes one table. *)
  let join_identical, _, _ =
    pipeline ctx ~name:"scan_join_group" ~input_rows
      ~title:"E19: morsel-driven parallel scan+join+group (rows_in = lineitem rows)"
      (group
         (Physical.Hash_join
            {
              left = Physical.Seq_scan { alias = "l"; table = "lineitem"; filter = [] };
              right = Physical.Seq_scan { alias = "o"; table = "orders"; filter = [] };
              keys = [ (col "l" "ok", col "o" "ok") ];
              cond = [];
              build_side = `Right;
            }))
  in
  let identical = scan_identical && join_identical in
  let rps_of want =
    match List.find_opt (fun (n, _, _, _) -> n = want) timed with
    | Some (_, _, _, r) -> r
    | None -> 0.
  in
  let base = rps_of "serial" in
  (* Per-operator counters of a profiled dop-4 run: the exchange node plus
     its worker-<i> children (rows, batches, wall ms, page IO each). *)
  (match List.find_opt (fun (n, _, _) -> n = "dop4") plans with
   | Some (_, _, p) ->
     let _, prof = Executor.run_profiled ctx p in
     Printf.printf "\nper-operator counters (dop 4):\n%s\n"
       (Profile.to_string prof)
   | None -> ());
  let cores = Domain.recommended_domain_count () in
  let dop1_ok = rps_of "dop1" >= 0.9 *. base in
  let scaling_ok = rps_of "dop4" >= 2.0 *. rps_of "dop1" in
  Printf.printf "\nhost: %d recommended domains\n" cores;
  if not identical then
    Bench_util.fail_gate "E19: parallel output diverged from serial";
  Printf.printf "verdict: %s\n"
    (if not identical then "NOT met — parallel output diverged from serial"
     else if not dop1_ok then
       "NOT met — dop 1 through the exchange regresses > 10%"
     else if scaling_ok then
       "reproduced — byte-identical output, dop 1 overhead < 10%, >= 2x \
        rows/sec at dop 4"
     else if cores < 2 then
       "partially reproduced — byte-identical output and dop 1 overhead < \
        10%; scaling not measurable on a single-core host"
     else "NOT met — < 2x rows/sec at dop 4 on a multi-core host")
