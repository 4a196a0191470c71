(* Benchmark harness: regenerates every experiment of EXPERIMENTS.md.

     dune exec bench/main.exe                 -- all experiments
     dune exec bench/main.exe -- E1 E6        -- selected experiments
     dune exec bench/main.exe -- --bechamel   -- Bechamel optimizer micro-benchmarks
*)

let experiments =
  [
    ("E1", E1_example1.run);
    ("E2", E2_transforms.run);
    ("E3", E3_pushdown.run);
    ("E4", E4_fig4.run);
    ("E5", E5_multiview.run);
    ("E6", E6_noregress.run);
    ("E7", E7_searchspace.run);
    ("E8", E8_restrictions.run);
    ("E9", E9_costmodel.run);
    ("E10", E10_unnest.run);
    ("E11", E11_ablations.run);
    ("E12", E12_bushy.run);
    ("E13", E13_plancache.run);
    ("E14", E14_batchexec.run);
    ("E15", E15_pool.run);
    ("E16", E16_faults.run);
    ("E17", E17_obs.run);
    ("E18", E18_matview.run);
    ("E20", E20_serve.run);
    ("E21", E21_wal.run);
    ("E22", E22_stats.run);
  ]

(* One Bechamel test per experiment: optimizer latency on that experiment's
   representative query. *)
let bechamel_tests () =
  let open Bechamel in
  let opt algo cat q () = ignore (Optimizer.optimize
    ~options:{ Optimizer.default_options with algorithm = algo } cat q) in
  let empdept = Emp_dept.load ~params:{ Emp_dept.default_params with emps = 5000 } () in
  let tpcd = Tpcd.load () in
  let chain5 = Chain.load ~n:5 () in
  let mk name f = Test.make ~name (Staged.stage f) in
  [
    mk "E1.optimize.example1.paper" (opt Optimizer.Paper empdept (Emp_dept.example1 ()));
    mk "E2.pullup.rewrite" (fun () ->
        ignore (Pullup.rewrite empdept
                  (Block.query_logical empdept (Emp_dept.example1 ()))));
    mk "E3.optimize.example2.greedy"
      (opt Optimizer.Greedy_conservative empdept (Emp_dept.example2 ()));
    mk "E4.optimize.q17.paper" (opt Optimizer.Paper tpcd (Tpcd.q_small_quantity_parts ()));
    mk "E5.optimize.two_views.paper" (opt Optimizer.Paper tpcd (Tpcd.q_two_views ()));
    mk "E6.optimize.big_spenders.traditional"
      (opt Optimizer.Traditional tpcd (Tpcd.q_big_spenders ()));
    mk "E7.optimize.chain5.paper"
      (opt Optimizer.Paper chain5 (Chain.chain_query ~view_size:2 ~n:5));
    mk "E8.optimize.chain5.k0"
      (fun () ->
        ignore
          (Optimizer.optimize
             ~options:
               { Optimizer.default_options with
                 paper = { Paper_opt.default_options with k_pullup = 0 } }
             chain5 (Chain.chain_query ~view_size:2 ~n:5)));
    mk "E9.estimate.example1" (fun () ->
        let r = Optimizer.optimize empdept (Emp_dept.example1 ()) in
        ignore (Cost_model.estimate empdept ~work_mem:32 r.Optimizer.plan));
    mk "E10.bind.nested" (fun () ->
        ignore
          (Binder.bind_sql empdept
             "SELECT e1.eno AS eno FROM emp e1 WHERE e1.sal > (SELECT AVG(e2.sal) FROM emp e2 WHERE e2.dno = e1.dno)"));
  ]

let run_bechamel () =
  let open Bechamel in
  let open Bechamel.Toolkit in
  let instances = [ Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 100) () in
  let tests = bechamel_tests () in
  List.iter
    (fun test ->
      List.iter
        (fun (name, result) ->
          let stats =
            Analyze.one (Analyze.ols ~bootstrap:0 ~r_square:false
                           ~predictors:[| Measure.run |])
              Instance.monotonic_clock result
          in
          match Analyze.OLS.estimates stats with
          | Some [ est ] -> Printf.printf "%-42s %12.1f ns/run\n" name est
          | _ -> Printf.printf "%-42s (no estimate)\n" name)
        (Benchmark.all cfg instances test
         |> Hashtbl.to_seq |> List.of_seq
         |> List.map (fun (k, v) -> (k, v))))
    tests

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  if List.mem "--bechamel" args then run_bechamel ()
  else begin
    let selected = List.filter (fun a -> not (String.length a > 1 && a.[0] = '-')) args in
    let to_run =
      if selected = [] then experiments
      else List.filter (fun (n, _) -> List.mem n selected) experiments
    in
    let ts = Unix.gettimeofday () in
    List.iter
      (fun (name, run) ->
        Printf.printf "\n================ %s ================\n%!" name;
        run ();
        Bench_util.Json.write ~exp:name ~ts;
        print_newline ())
      to_run
  end
