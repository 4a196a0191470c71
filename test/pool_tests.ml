(* The worker pool: pooled sessions against the oracle with counters that
   add up (the oracle harness's pool leg), worker-side exceptions surface
   through [await] in the submitter, and shutdown is idempotent. *)

let tiny = { Tpcd.default_params with customers = 60; orders_per_customer = 3;
             lines_per_order = 3; parts = 40; suppliers = 10 }

let exceptions_propagate () =
  let cat = Tpcd.load ~params:tiny () in
  let svc = Service.create cat in
  Service.Pool.with_pool ~workers:2 svc (fun pool ->
      let bad = Service.Pool.submit_sql pool "SELEKT nonsense FROM nowhere" in
      let ok =
        Service.Pool.submit_sql pool
          "SELECT c.nation AS nation, COUNT(*) AS n FROM customer c GROUP BY \
           c.nation"
      in
      let raised =
        match Service.Pool.await bad with
        | _ -> false
        | exception Avq_error.Error (Avq_error.Bad_statement _) -> true
      in
      Alcotest.(check bool) "worker-side error re-raised at await" true raised;
      let _, rel, _ = Service.Pool.await ok in
      Alcotest.(check bool) "pool survives a failed statement" true
        (Relation.cardinality rel > 0))

let shutdown_semantics () =
  let cat = Tpcd.load ~params:tiny () in
  let svc = Service.create cat in
  let pool = Service.Pool.create ~workers:2 svc in
  Alcotest.(check int) "workers" 2 (Service.Pool.workers pool);
  let fut =
    Service.Pool.submit_sql pool
      "SELECT c.nation AS nation, COUNT(*) AS n FROM customer c GROUP BY c.nation"
  in
  ignore (Service.Pool.await fut);
  Alcotest.(check int) "one statement executed" 1 (Service.Pool.executed pool);
  Service.Pool.shutdown pool;
  Service.Pool.shutdown pool;
  (* idempotent *)
  let rejected =
    match Service.Pool.submit_sql pool "SELECT 1 AS one FROM customer c" with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "submit after shutdown rejected" true rejected

let tests =
  [
    Oracle_tests.pool_differential ~workers:2;
    Oracle_tests.pool_differential ~workers:4;
    Oracle_tests.pool_pays_once;
    Alcotest.test_case "worker exceptions propagate through await" `Quick
      exceptions_propagate;
    Alcotest.test_case "shutdown is idempotent and rejects new work" `Quick
      shutdown_semantics;
  ]
