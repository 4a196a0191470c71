(* Plan validation: every plan the optimizers emit must pass the static
   checker (the oracle harness's algorithms leg, at 120 customers), and the
   checker must reject planner-invariant violations. *)

let c ~q n = Schema.column ~qual:q n Datatype.Int

let rejects_unsorted_merge () =
  let cat = Emp_dept.load ~params:{ Emp_dept.default_params with emps = 100; depts = 4 } () in
  let bad =
    Physical.Merge_join
      {
        left = Physical.Seq_scan { alias = "e"; table = "emp"; filter = [] };
        right = Physical.Seq_scan { alias = "d"; table = "dept"; filter = [] };
        keys = [ (c ~q:"e" "dno", c ~q:"d" "dno") ];
        cond = [];
      }
  in
  Alcotest.(check bool) "unsorted merge rejected" true
    (Result.is_error (Plan_check.check cat bad))

let rejects_nonrescannable_bnl () =
  let cat = Emp_dept.load ~params:{ Emp_dept.default_params with emps = 100; depts = 4 } () in
  let inner_join =
    Physical.Hash_join
      {
        left = Physical.Seq_scan { alias = "d"; table = "dept"; filter = [] };
        right = Physical.Seq_scan { alias = "e2"; table = "emp"; filter = [] };
        keys = [ (c ~q:"d" "dno", c ~q:"e2" "dno") ];
        cond = [];
        build_side = `Left;
      }
  in
  let bad =
    Physical.Block_nl_join
      { left = Physical.Seq_scan { alias = "e"; table = "emp"; filter = [] };
        right = inner_join; cond = [] }
  in
  Alcotest.(check bool) "non-rescannable BNL inner rejected" true
    (Result.is_error (Plan_check.check cat bad))

let rejects_unresolved_column () =
  let cat = Emp_dept.load ~params:{ Emp_dept.default_params with emps = 100; depts = 4 } () in
  let bad =
    Physical.Filter
      {
        input = Physical.Seq_scan { alias = "e"; table = "emp"; filter = [] };
        pred = [ Expr.Cmp (Expr.Eq, Expr.Col (c ~q:"ghost" "col"), Expr.int 1) ];
      }
  in
  Alcotest.(check bool) "unresolved column rejected" true
    (Result.is_error (Plan_check.check cat bad))

let rejects_missing_index () =
  let cat = Emp_dept.load ~params:{ Emp_dept.default_params with emps = 100; depts = 4 } () in
  let bad =
    Physical.Index_scan
      { alias = "e"; table = "emp"; column = "sal"; lo = None; hi = None; filter = [] }
  in
  Alcotest.(check bool) "missing index rejected" true
    (Result.is_error (Plan_check.check cat bad))

let tests =
  [
    Oracle_tests.all_optimizer_plans_valid;
    Alcotest.test_case "rejects unsorted merge join" `Quick rejects_unsorted_merge;
    Alcotest.test_case "rejects non-rescannable BNL inner" `Quick
      rejects_nonrescannable_bnl;
    Alcotest.test_case "rejects unresolved column" `Quick rejects_unresolved_column;
    Alcotest.test_case "rejects missing index" `Quick rejects_missing_index;
  ]
