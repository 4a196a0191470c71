(* Optimizer-level tests: normalization, DP behavior, option effects,
   determinism, and plan/report structure. *)

let c ~q n = Schema.column ~qual:q n Datatype.Int

let normalize_rewrites_exports () =
  let cat = Emp_dept.load ~params:{ Emp_dept.default_params with emps = 200; depts = 5 } () in
  let nq = Normalize.normalize cat (Emp_dept.example1 ()) in
  (* The outer join predicate e1.dno = b.dno must now reference e2.dno. *)
  let mentions_e2 =
    List.exists
      (fun p ->
        List.exists
          (fun (col : Schema.column) -> String.equal col.Schema.cqual "e2")
          (Expr.pred_columns p))
      nq.Normalize.preds
  in
  Alcotest.(check bool) "exported key rewritten to base column" true mentions_e2;
  let mentions_b_dno =
    List.exists
      (fun p ->
        List.exists
          (fun (col : Schema.column) ->
            String.equal col.Schema.cqual "b" && String.equal col.Schema.cname "dno")
          (Expr.pred_columns p))
      nq.Normalize.preds
  in
  Alcotest.(check bool) "no remaining b.dno reference" false mentions_b_dno;
  (* The aggregate-output reference must stay as b.asal. *)
  let agg_pred =
    List.find_opt (fun p -> Normalize.agg_quals_of_pred nq p = [ "b" ]) nq.Normalize.preds
  in
  Alcotest.(check bool) "aggregate predicate detected" true (agg_pred <> None);
  (match agg_pred with
   | Some p ->
     Alcotest.(check (list string)) "pred_aliases expands agg quals"
       [ "e1"; "e2" ] (Normalize.pred_aliases nq p)
   | None -> ())

let dp_single_relation () =
  let cat = Emp_dept.load ~params:{ Emp_dept.default_params with emps = 500; depts = 5 } () in
  let input =
    {
      Dp.items = [ { Dp.covers = [ "e" ]; access = Dp.A_base { alias = "e"; table = "emp" } } ];
      preds =
        [ Expr.Cmp (Expr.Lt, Expr.Col (c ~q:"e" "age"), Expr.int 25) ];
      group = None;
      early_grouping = false;
      bushy = false;
    }
  in
  let entry = List.hd (Dp.optimize cat ~work_mem:32 input) in
  Alcotest.(check bool) "positive cost" true (entry.Dp.est.Cost_model.cost > 0.);
  let rel = Executor.run (Exec_ctx.create cat) entry.Dp.plan in
  Relation.iter
    (fun t ->
      match Tuple.get t 3 with
      | Value.Int age when age < 25 -> ()
      | v -> Alcotest.failf "filter not applied: %s" (Value.to_string v))
    rel

let dp_optimality_vs_exhaustive () =
  (* For a 3-relation chain, DP's plan must not cost more than every
     left-deep BNL/hash variant we can enumerate by hand. *)
  let cat = Chain.load ~rows:500 ~n:3 () in
  let q = Chain.flat_query ~n:3 in
  let r = Optimizer.optimize ~options:{ Optimizer.default_options with algorithm = Optimizer.Traditional } cat q in
  let scan a t = Physical.Seq_scan { alias = a; table = t; filter = [] } in
  let pred a b =
    Expr.Cmp (Expr.Eq, Expr.Col (c ~q:b "fk"), Expr.Col (c ~q:a "k"))
  in
  let orders =
    [ [ ("a0", "t0"); ("a1", "t1"); ("a2", "t2") ];
      [ ("a1", "t1"); ("a0", "t0"); ("a2", "t2") ];
      [ ("a2", "t2"); ("a1", "t1"); ("a0", "t0") ] ]
  in
  let manual_cost order =
    match order with
    | [ (a1, t1); (a2, t2); (a3, t3) ] ->
      let join l (al, r) cond =
        Physical.Hash_join
          { left = l; right = scan al r;
            keys = (match Expr.as_equijoin cond with Some (x, y) ->
              (* orient left-covered column first *)
              (match x.Schema.cqual = al with
               | true -> [ (y, x) ]
               | false -> [ (x, y) ])
              | None -> []);
            cond = []; build_side = `Right }
      in
      let j1 =
        join (scan a1 t1) (a2, t2)
          (if a1 < a2 then pred a1 a2 else pred a2 a1)
      in
      let j2 = join j1 (a3, t3) (if a2 < a3 then pred a2 a3 else pred a3 a2) in
      let top =
        Physical.Hash_group
          { input = j2; agg_qual = ""; keys = [ c ~q:"a2" "k" ];
            aggs = [ Aggregate.make Aggregate.Sum ~arg:(Expr.Col (c ~q:"a0" "v")) "total" ];
            having = [] }
      in
      (Cost_model.estimate cat ~work_mem:32 top).Cost_model.cost
    | _ -> assert false
  in
  List.iter
    (fun order ->
      let manual = manual_cost order in
      Alcotest.(check bool)
        (Printf.sprintf "dp (%.1f) <= manual (%.1f)" r.Optimizer.est.Cost_model.cost manual)
        true
        (r.Optimizer.est.Cost_model.cost <= manual +. 1e-6))
    orders

let determinism () =
  let cat = Tpcd.load ~params:{ Tpcd.default_params with customers = 100 } () in
  let q = Tpcd.q_big_spenders () in
  let p1 = (Optimizer.optimize cat q).Optimizer.plan in
  let p2 = (Optimizer.optimize cat q).Optimizer.plan in
  Alcotest.(check string) "same plan across runs" (Physical.to_string p1)
    (Physical.to_string p2)

let k_zero_disables_pullup () =
  let cat = Emp_dept.load ~params:{ Emp_dept.default_params with emps = 2000; depts = 50 } () in
  let q = Emp_dept.example1 () in
  let opts k =
    { Optimizer.default_options with
      paper = { Paper_opt.default_options with k_pullup = k } }
  in
  let r0 = Optimizer.optimize ~options:(opts 0) cat q in
  Alcotest.(check int) "k=0: no pulled variants beyond W=V-V'" 0
    r0.Optimizer.search.Search_stats.pullups;
  let r2 = Optimizer.optimize ~options:(opts 2) cat q in
  Alcotest.(check bool) "k=2 explores pull-ups" true
    (r2.Optimizer.search.Search_stats.pullups > 0);
  Alcotest.(check bool) "larger space never increases est cost" true
    (r2.Optimizer.est.Cost_model.cost <= r0.Optimizer.est.Cost_model.cost +. 1e-6)

let report_structure () =
  let cat = Tpcd.load ~params:{ Tpcd.default_params with customers = 150 } () in
  let q = Tpcd.q_two_views () in
  let r = Optimizer.optimize cat q in
  match r.Optimizer.report with
  | None -> Alcotest.fail "paper run must produce a report"
  | Some rep ->
    Alcotest.(check int) "one minimal set per view" 2
      (List.length rep.Paper_opt.minimal_sets);
    Alcotest.(check bool) "phase-1 enumerated pulled plans" true
      (List.length rep.Paper_opt.pulled_plans >= 2);
    Alcotest.(check int) "one chosen W per view" 2 (List.length rep.Paper_opt.chosen_w);
    Alcotest.(check bool) "combos tried" true (rep.Paper_opt.combos_tried >= 1)

let search_stats_monotone () =
  (* Greedy explores at least as much as traditional on a grouped block. *)
  let cat = Chain.load ~n:4 () in
  let q = Chain.flat_query ~n:4 in
  let run algo =
    (Optimizer.optimize ~options:{ Optimizer.default_options with algorithm = algo } cat q).Optimizer.search
  in
  let t = run Optimizer.Traditional and g = run Optimizer.Greedy_conservative in
  Alcotest.(check int) "traditional considers no group placements" 0
    t.Search_stats.group_plans;
  Alcotest.(check bool) "greedy considers group placements" true
    (g.Search_stats.group_plans > 0)

let work_mem_changes_plans () =
  let cat = Emp_dept.load ~params:{ Emp_dept.default_params with emps = 30_000; depts = 2000 } () in
  let q = Emp_dept.example2 () in
  let cost wm =
    (Optimizer.optimize
       ~options:{ Optimizer.default_options with work_mem = wm } cat q)
      .Optimizer.est.Cost_model.cost
  in
  Alcotest.(check bool) "more memory never hurts the estimate" true
    (cost 128 <= cost 4 +. 1e-6)

let tests =
  [
    Alcotest.test_case "normalize rewrites view exports" `Quick normalize_rewrites_exports;
    Alcotest.test_case "dp single relation with filter" `Quick dp_single_relation;
    Alcotest.test_case "dp no worse than manual plans" `Quick dp_optimality_vs_exhaustive;
    Alcotest.test_case "optimization is deterministic" `Quick determinism;
    Alcotest.test_case "k-level pull-up restriction" `Quick k_zero_disables_pullup;
    Alcotest.test_case "paper report structure" `Quick report_structure;
    Alcotest.test_case "search counters by algorithm" `Quick search_stats_monotone;
    Alcotest.test_case "work_mem monotonicity" `Quick work_mem_changes_plans;
  ]

let bushy_extension () =
  let cat = Tpcd.load ~params:{ Tpcd.default_params with customers = 150 } () in
  let q = Tpcd.q_two_views () in
  let run bushy =
    Optimizer.optimize
      ~options:
        { Optimizer.default_options with
          paper = { Paper_opt.default_options with bushy } }
      cat q
  in
  let linear = run false and bushy = run true in
  Alcotest.(check bool) "bushy space includes linear: est never worse" true
    (bushy.Optimizer.est.Cost_model.cost <= linear.Optimizer.est.Cost_model.cost +. 1e-6);
  Alcotest.(check bool) "bushy explores more joins" true
    (bushy.Optimizer.search.Search_stats.join_plans
     >= linear.Optimizer.search.Search_stats.join_plans);
  (match Plan_check.check cat bushy.Optimizer.plan with
   | Ok () -> ()
   | Error m -> Alcotest.failf "bushy plan invalid: %s" m);
  let expected = Block.reference_eval cat q in
  let ctx = Exec_ctx.create cat in
  let got = Executor.run ctx bushy.Optimizer.plan in
  Alcotest.(check bool) "bushy plan correct" true (Relation.multiset_equal expected got)

let bushy_tests = [ Alcotest.test_case "bushy join trees" `Quick bushy_extension ]
