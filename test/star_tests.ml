(* Star-schema workload: the named queries through every oracle leg,
   ORDER BY, invariant grouping on the dimension joins, and pull-up over
   the self-referencing view. *)

let tiny =
  { Star.default_params with days = 30; products = 50; stores = 8; rows_per_day = 40 }

let category_revenue_sorted () =
  let cat = Star.load ~params:tiny () in
  let got, _ = Optimizer.run cat (Star.q_category_revenue ()) in
  let rec sorted = function
    | a :: (b :: _ as rest) ->
      Value.compare (Tuple.get a 0) (Tuple.get b 0) <= 0 && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "revenue ordered by month" true (sorted (Relation.tuples got));
  Alcotest.(check bool) "nonempty" true (Relation.cardinality got > 0)

let dimension_mis () =
  (* Written as a view, the category-revenue query's dimension joins are
     exactly the invariant-grouping case: both dimensions join N:1 on their
     keys... but only [product] survives removal because [dates.month] (a
     non-key dimension attribute) is the grouping column. *)
  let cat = Star.load ~params:tiny () in
  let q = Star.q_category_revenue () in
  let nq = Normalize.normalize cat q in
  Alcotest.(check int) "flat query has no views" 0 (List.length nq.Normalize.views)

let pullup_chosen_when_selective () =
  let params = { Star.default_params with rows_per_day = 400; days = 120 } in
  let cat = Star.load ~params () in
  let q = Star.q_above_average_products () in
  let t =
    Optimizer.optimize
      ~options:{ Optimizer.default_options with algorithm = Optimizer.Traditional } cat q
  in
  let p = Optimizer.optimize cat q in
  Alcotest.(check bool)
    (Printf.sprintf "paper (%.0f) <= traditional (%.0f)" p.Optimizer.est.Cost_model.cost
       t.Optimizer.est.Cost_model.cost)
    true
    (p.Optimizer.est.Cost_model.cost <= t.Optimizer.est.Cost_model.cost +. 1e-6)

let tests =
  [
    Oracle_tests.category_revenue;
    Oracle_tests.above_average_products;
    Alcotest.test_case "ORDER BY month respected" `Quick category_revenue_sorted;
    Alcotest.test_case "flat star query normalizes without views" `Quick dimension_mis;
    Alcotest.test_case "paper never above traditional" `Quick pullup_chosen_when_selective;
  ]
