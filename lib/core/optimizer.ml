type algorithm = Traditional | Greedy_conservative | Paper

type options = {
  algorithm : algorithm;
  work_mem : int;
  paper : Paper_opt.options;
  predicate_moveround : bool;
}

let default_options =
  { algorithm = Paper; work_mem = 32; paper = Paper_opt.default_options;
    predicate_moveround = true }

type result = {
  plan : Physical.t;
  est : Cost_model.est;
  search : Search_stats.t;
  report : Paper_opt.report option;
  time_ms : float;
}

let optimize ?(options = default_options) cat query =
  let t0 = Unix.gettimeofday () in
  Search_stats.reset ();
  let nq = Normalize.normalize cat query in
  let nq = if options.predicate_moveround then Predicate_transfer.apply nq else nq in
  let baseline mode =
    Baseline.optimize cat ~work_mem:options.work_mem ~mode
      ~bushy:options.paper.Paper_opt.bushy nq
  in
  let entry, report =
    match options.algorithm with
    | Traditional -> (baseline `Traditional, None)
    | Greedy_conservative -> (baseline `Greedy, None)
    | Paper ->
      let r = Paper_opt.optimize cat ~work_mem:options.work_mem ~opts:options.paper nq in
      (r.Paper_opt.best, Some r)
  in
  let plan = Physical.Project { input = entry.Dp.plan; cols = nq.Normalize.select } in
  let plan =
    match nq.Normalize.order with
    | [] -> plan
    | order ->
      Physical.Sort { input = plan; cols = List.map fst order; desc = List.map snd order }
  in
  let plan =
    match nq.Normalize.limit with
    | None -> plan
    | Some count -> Physical.Limit { input = plan; count }
  in
  { plan; est = Cost_model.estimate cat ~work_mem:options.work_mem plan;
    search = Search_stats.snapshot (); report;
    time_ms = (Unix.gettimeofday () -. t0) *. 1000. }

let run ?(options = default_options) cat query =
  let r = optimize ~options cat query in
  let ctx = Exec_ctx.create ~work_mem:options.work_mem cat in
  Executor.run_measured ~cold:true ctx r.plan
