(* E14 — throughput of the batched (vectorized) executor.

   Not a paper experiment: the paper's claims are about IO cost.  This
   experiment tracks the executor's CPU-side perf: rows/sec of
   scan→filter→group and scan→filter→join→group pipelines over the
   TPC-D-like and star workloads on a warm pool, plus per-operator counters
   from a profiled run.  Each pipeline is scored by the median of 9 trials,
   with the min–max spread next to it, so records from two versions of the
   code can be compared against noise. *)

let col q n = Schema.column ~qual:q n Datatype.Int
let le q n v = Expr.Cmp (Expr.Le, Expr.Col (col q n), Expr.Const (Value.Int v))
let sum q n out = Aggregate.make Aggregate.Sum ~arg:(Expr.Col (col q n)) out

let trials = 9

type outcome = { io : int; rps : float; rps_min : float; rps_max : float }

let bench_pipeline ~cat ~name ~input_rows plan =
  let ctx = Exec_ctx.create ~work_mem:256 cat in
  let _, io = Executor.run_measured ~cold:true ctx plan in
  let io = io.Buffer_pool.reads + io.Buffer_pool.writes in
  (* Warm the pool, then time CPU-side throughput. *)
  ignore (Executor.run ctx plan);
  let ts =
    Array.init trials (fun _ ->
        let t0 = Unix.gettimeofday () in
        ignore (Executor.run ctx plan);
        Unix.gettimeofday () -. t0)
  in
  Array.sort compare ts;
  let t = ts.(trials / 2) in
  let rps t = float_of_int input_rows /. t in
  let o =
    { io; rps = rps t; rps_min = rps ts.(trials - 1); rps_max = rps ts.(0) }
  in
  Bench_util.Json.record ~name:(name ^ ".batch")
    ~config:
      [ ("engine", "batch");
        ("cores", string_of_int (Domain.recommended_domain_count ()));
        ("input_rows", string_of_int input_rows) ]
    ~extra:[ ("rows_per_sec_min", o.rps_min); ("rows_per_sec_max", o.rps_max) ]
    ~io ~wall_ms:(t *. 1000.) ~rows_per_sec:o.rps ();
  o

let run () =
  let tpcd =
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
  let star =
    Star.load
      ~params:
        {
          Star.default_params with
          days = 365;
          products = 1000;
          stores = 50;
          rows_per_day = 300;
          frames = 4096;
        }
      ()
  in
  let lineitems = 3000 * 5 * 5 in
  let sales_rows = 365 * 300 in
  let scan_l =
    Physical.Seq_scan { alias = "l"; table = "lineitem"; filter = [ le "l" "qty" 5 ] }
  in
  let tpcd_sfg =
    Physical.Hash_group
      {
        Physical.input = scan_l;
        agg_qual = "g";
        keys = [ col "l" "pk" ];
        aggs = [ sum "l" "price" "rev" ];
        having = [];
      }
  in
  let tpcd_sfjg =
    Physical.Hash_group
      {
        Physical.input =
          Physical.Hash_join
            {
              left = Physical.Seq_scan { alias = "o"; table = "orders"; filter = [] };
              right = scan_l;
              keys = [ (col "o" "ok", col "l" "ok") ];
              cond = [];
              build_side = `Left;
            };
        agg_qual = "g";
        keys = [ col "l" "pk" ];
        aggs = [ sum "l" "price" "rev" ];
        having = [];
      }
  in
  let star_sfg =
    Physical.Hash_group
      {
        Physical.input =
          Physical.Seq_scan
            { alias = "s"; table = "sales"; filter = [ le "s" "qty" 3 ] };
        agg_qual = "g";
        keys = [ col "s" "prod" ];
        aggs = [ sum "s" "qty" "units" ];
        having = [];
      }
  in
  let pipelines =
    [
      ("tpcd.scan_filter_group", tpcd, lineitems, tpcd_sfg);
      ("tpcd.scan_filter_join_group", tpcd, lineitems, tpcd_sfjg);
      ("star.scan_filter_group", star, sales_rows, star_sfg);
    ]
  in
  let rows =
    List.map
      (fun (name, cat, input_rows, plan) ->
        let o = bench_pipeline ~cat ~name ~input_rows plan in
        [
          name;
          Bench_util.i input_rows;
          Printf.sprintf "%.2fM" (o.rps /. 1e6);
          Printf.sprintf "%.2f–%.2fM" (o.rps_min /. 1e6) (o.rps_max /. 1e6);
          Bench_util.i o.io;
        ])
      pipelines
  in
  Bench_util.print_table ~title:"E14: batch execution engine throughput"
    ~header:[ "pipeline"; "rows_in"; "M rows/s"; "spread"; "io" ]
    rows;
  Printf.printf "(median of %d warm trials; spread = slowest–fastest trial; %d cores)\n"
    trials (Domain.recommended_domain_count ());
  (* Per-operator counters of the profiled run (join pipeline). *)
  let ctx = Exec_ctx.create ~work_mem:256 tpcd in
  let _, prof = Executor.run_profiled ctx tpcd_sfjg in
  Printf.printf "\nper-operator counters (tpcd.scan_filter_join_group):\n%s\n"
    (Profile.to_string prof)
