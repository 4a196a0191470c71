(* SQL front end: parse + bind + optimize + execute, checked against the
   reference interpreter and against hand-built Block queries. *)

let small_params =
  { Emp_dept.default_params with emps = 600; depts = 15; frames = 64 }

let run_sql cat sql =
  let q = Binder.bind_sql cat sql in
  let expected = Logical.eval cat (Block.query_logical cat q) in
  let result, _ = Optimizer.run cat q in
  (expected, result)

let check_sql name sql () =
  let cat = Emp_dept.load ~params:small_params () in
  let expected, result = run_sql cat sql in
  Alcotest.(check bool) name true (Relation.multiset_equal expected result)

let example1_sql =
  "CREATE VIEW a1 (dno, asal) AS \
     SELECT e2.dno, AVG(e2.sal) FROM emp e2 GROUP BY e2.dno; \
   SELECT e1.eno AS eno, e1.sal AS sal FROM emp e1, a1 b \
   WHERE e1.dno = b.dno AND e1.age < 22 AND e1.sal > b.asal"

let nested_sql =
  "SELECT e1.eno AS eno, e1.sal AS sal FROM emp e1 \
   WHERE e1.age < 22 AND e1.sal > (SELECT AVG(e2.sal) FROM emp e2 WHERE e2.dno = e1.dno)"

let equivalent_to_view_form () =
  (* Kim's transformation: the nested query must equal the view form. *)
  let cat = Emp_dept.load ~params:small_params () in
  let _, r1 = run_sql cat example1_sql in
  let _, r2 = run_sql cat nested_sql in
  Alcotest.(check bool) "nested = flattened view form" true
    (Relation.multiset_equal r1 r2)

let example2_sql =
  "SELECT e.dno AS dno, AVG(e.sal) AS asal FROM emp e, dept d \
   WHERE e.dno = d.dno AND d.budget < 1000000 GROUP BY e.dno"

let spj_view_sql =
  "CREATE VIEW rich (xeno, xsal, xdno) AS \
     SELECT e.eno, e.sal, e.dno FROM emp e WHERE e.sal > 5000; \
   SELECT r.xeno AS eno, d.dname AS dname FROM rich r, dept d WHERE r.xdno = d.dno"

let having_sql =
  "SELECT e.dno AS dno, SUM(e.sal) AS total FROM emp e \
   GROUP BY e.dno HAVING SUM(e.sal) > 40000 AND COUNT(*) > 3"

let scalar_agg_sql = "SELECT MIN(e.sal) AS m, MAX(e.age) AS x, COUNT(*) AS n FROM emp e"

let parse_errors () =
  let cat = Emp_dept.load ~params:small_params () in
  let expect_fail name sql =
    let failed =
      try
        ignore (Binder.bind_sql cat sql);
        false
      with Binder.Bind_error _ | Parser.Parse_error _ | Lexer.Lex_error _ -> true
    in
    Alcotest.(check bool) name true failed
  in
  expect_fail "unknown table" "SELECT x.a AS a FROM nosuch x";
  expect_fail "unknown column" "SELECT e.nosuch AS a FROM emp e";
  expect_fail "ambiguous column" "SELECT sal AS s FROM emp e1, emp e2";
  expect_fail "select not in group by"
    "SELECT e.sal AS s, COUNT(*) AS n FROM emp e GROUP BY e.dno";
  expect_fail "count subquery rejected"
    "SELECT e.eno AS eno FROM emp e WHERE e.sal > (SELECT COUNT(*) FROM emp x WHERE x.dno = e.dno)";
  expect_fail "garbage" "SELEKT foo";
  expect_fail "trailing" "SELECT e.eno AS a FROM emp e WHERE"

let tests =
  [
    Alcotest.test_case "example1 via SQL" `Quick (check_sql "example1" example1_sql);
    Alcotest.test_case "example2 via SQL" `Quick (check_sql "example2" example2_sql);
    Alcotest.test_case "nested subquery flattening" `Quick
      (check_sql "nested" nested_sql);
    Alcotest.test_case "nested equals view form" `Quick equivalent_to_view_form;
    Alcotest.test_case "SPJ view inlining" `Quick (check_sql "spj" spj_view_sql);
    Alcotest.test_case "having with hidden agg" `Quick (check_sql "having" having_sql);
    Alcotest.test_case "scalar aggregates" `Quick (check_sql "scalar" scalar_agg_sql);
    Alcotest.test_case "binder error cases" `Quick parse_errors;
  ]

(* ---- ORDER BY / LIMIT ---- *)

let order_limit () =
  let cat = Emp_dept.load ~params:small_params () in
  let q =
    Binder.bind_sql cat
      "SELECT e.eno AS eno, e.sal AS sal FROM emp e WHERE e.sal > 5000 \
       ORDER BY sal, eno LIMIT 7"
  in
  let expected = Block.reference_eval cat q in
  let got, _ = Optimizer.run cat q in
  Alcotest.(check int) "limit applied" 7 (Relation.cardinality got);
  Alcotest.(check bool) "matches reference" true (Relation.multiset_equal expected got);
  let rec sorted = function
    | a :: (b :: _ as rest) -> Tuple.compare_at [| 1; 0 |] a b <= 0 && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "output sorted" true (sorted (Relation.tuples got))

(* Ties at the LIMIT cut: the reference's stable sort keeps the join's row
   order among equal keys, and the executor must pick the same rows. *)
let order_limit_ties_over_join () =
  let cat = Emp_dept.load ~params:small_params () in
  let sql limit =
    "SELECT e.eno AS eno, d.dno AS dno FROM emp e, dept d WHERE e.dno = d.dno \
     ORDER BY dno" ^ limit
  in
  let all = Block.reference_eval cat (Binder.bind_sql cat (sql "")) in
  let q = Binder.bind_sql cat (sql " LIMIT 7") in
  let expected = Block.reference_eval cat q in
  let last_key rel = Tuple.get (List.nth (Relation.tuples rel) 6) 1 in
  let with_key k rel =
    List.length (List.filter (fun t -> Value.compare (Tuple.get t 1) k = 0) (Relation.tuples rel))
  in
  Alcotest.(check bool) "the cut splits a tie" true
    (with_key (last_key expected) all > with_key (last_key expected) expected);
  List.iter
    (fun algorithm ->
      let options = { Optimizer.default_options with algorithm } in
      let got, _ = Optimizer.run ~options cat q in
      Alcotest.(check bool) "same rows as the reference" true
        (Relation.multiset_equal expected got))
    [ Optimizer.Traditional; Optimizer.Greedy_conservative; Optimizer.Paper ]

let order_by_qualified_and_agg () =
  let cat = Emp_dept.load ~params:small_params () in
  let q =
    Binder.bind_sql cat
      "SELECT e.dno AS dno, SUM(e.sal) AS total FROM emp e GROUP BY e.dno \
       ORDER BY e.dno LIMIT 3"
  in
  let got, _ = Optimizer.run cat q in
  Alcotest.(check int) "limit" 3 (Relation.cardinality got);
  let rec sorted = function
    | a :: (b :: _ as rest) -> Tuple.compare_at [| 0 |] a b <= 0 && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted by dno" true (sorted (Relation.tuples got))

let uncorrelated_scalar_subquery () =
  let cat = Emp_dept.load ~params:small_params () in
  let q =
    Binder.bind_sql cat
      "SELECT e.eno AS eno FROM emp e WHERE e.sal > (SELECT AVG(x.sal) FROM emp x)"
  in
  let expected = Block.reference_eval cat q in
  List.iter
    (fun algorithm ->
      let options = { Optimizer.default_options with algorithm } in
      let got, _ = Optimizer.run ~options cat q in
      Alcotest.(check bool) "above-average employees" true
        (Relation.multiset_equal expected got))
    [ Optimizer.Traditional; Optimizer.Paper ];
  (* sanity: strictly fewer than all, more than none *)
  let got, _ = Optimizer.run cat q in
  let n = Relation.cardinality got in
  Alcotest.(check bool) "plausible count" true (n > 0 && n < small_params.Emp_dept.emps)

let order_limit_errors () =
  let cat = Emp_dept.load ~params:small_params () in
  let expect_fail name sql =
    let failed =
      try ignore (Binder.bind_sql cat sql); false
      with Binder.Bind_error _ | Parser.Parse_error _ -> true
    in
    Alcotest.(check bool) name true failed
  in
  expect_fail "order by unselected column"
    "SELECT e.eno AS eno FROM emp e ORDER BY sal";
  expect_fail "negative limit" "SELECT e.eno AS eno FROM emp e LIMIT -1";
  expect_fail "order by in view"
    "CREATE VIEW v (a, b) AS SELECT e.dno, SUM(e.sal) FROM emp e GROUP BY e.dno ORDER BY a; \
     SELECT v.a AS a FROM v"

let more_tests =
  [
    Alcotest.test_case "ORDER BY + LIMIT" `Quick order_limit;
    Alcotest.test_case "ORDER BY ties under LIMIT over a join" `Quick
      order_limit_ties_over_join;
    Alcotest.test_case "ORDER BY qualified over grouped query" `Quick
      order_by_qualified_and_agg;
    Alcotest.test_case "uncorrelated scalar subquery" `Quick
      uncorrelated_scalar_subquery;
    Alcotest.test_case "ORDER BY / LIMIT error cases" `Quick order_limit_errors;
  ]

let sugar_queries () =
  let cat = Emp_dept.load ~params:small_params () in
  let check name sql =
    let q = Binder.bind_sql cat sql in
    let expected = Block.reference_eval cat q in
    let got, _ = Optimizer.run cat q in
    Alcotest.(check bool) name true (Relation.multiset_equal expected got)
  in
  check "BETWEEN desugars"
    "SELECT e.eno AS eno FROM emp e WHERE e.sal BETWEEN 3000 AND 4000";
  check "IN desugars"
    "SELECT e.eno AS eno FROM emp e WHERE e.dno IN (1, 3, 5)";
  check "DISTINCT groups"
    "SELECT DISTINCT e.dno AS dno FROM emp e WHERE e.sal > 6000"

let distinct_is_distinct () =
  let cat = Emp_dept.load ~params:small_params () in
  let q = Binder.bind_sql cat "SELECT DISTINCT e.dno AS dno FROM emp e" in
  let got, _ = Optimizer.run cat q in
  let n = Relation.cardinality got in
  let sorted = Relation.sort_by [| 0 |] got in
  let rec strictly = function
    | a :: (b :: _ as rest) ->
      Value.compare (Tuple.get a 0) (Tuple.get b 0) < 0 && strictly rest
    | _ -> true
  in
  Alcotest.(check bool) "no duplicates" true (strictly (Relation.tuples sorted));
  Alcotest.(check int) "one row per department" small_params.Emp_dept.depts n

let sugar_tests =
  [
    Alcotest.test_case "BETWEEN / IN / DISTINCT" `Quick sugar_queries;
    Alcotest.test_case "DISTINCT eliminates duplicates" `Quick distinct_is_distinct;
  ]
