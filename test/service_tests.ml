(* The session layer: fingerprint stability, canonicalization sharing, LRU
   eviction order, catalog-epoch invalidation, re-binding several bounds on
   one column, and cached and re-bound plans on generated queries (the
   oracle harness's plan-cache leg). *)

(* Published FNV-1a 64-bit test vectors: the fingerprint must match them on
   any OCaml version (the whole point of not using Hashtbl.hash). *)
let fnv1a_vectors () =
  List.iter
    (fun (input, expected) ->
      Alcotest.(check string) input expected
        (Fingerprint.to_hex (Fingerprint.of_string input)))
    [
      ("", "cbf29ce484222325");
      ("a", "af63dc4c8601ec8c");
      ("foobar", "85944171f73967e8");
    ]

let bind cat sql = Binder.bind_sql cat sql

let canonicalization_shares_templates () =
  let cat = Emp_dept.load () in
  let q1 =
    bind cat
      "SELECT e.dno AS dno, AVG(e.sal) AS s FROM emp e WHERE e.age > 30 AND \
       e.sal > 1000 GROUP BY e.dno"
  in
  let q2 =
    bind cat
      "SELECT e.dno AS dno, AVG(e.sal) AS s FROM emp e WHERE e.sal > 2000 AND \
       e.age > 50 GROUP BY e.dno"
  in
  Alcotest.(check string) "same template despite constants and conjunct order"
    (Canon.serialize q1) (Canon.serialize q2);
  Alcotest.(check int) "two parameters" 2 (List.length (Canon.params q1));
  let q1' = Canon.substitute q1 (Canon.params q2) in
  Alcotest.(check string) "substitute keeps the template"
    (Canon.serialize q1) (Canon.serialize q1');
  Alcotest.(check bool) "substitute installs the new constants" true
    (Canon.params q1' = Canon.params q2);
  let q3 =
    bind cat
      "SELECT e.dno AS dno, AVG(e.sal) AS s FROM emp e WHERE e.age > 30 GROUP \
       BY e.dno"
  in
  Alcotest.(check bool) "different predicate set, different template" true
    (Canon.serialize q1 <> Canon.serialize q3)

let dummy_entry key =
  {
    Plan_cache.key;
    template = key;
    params = [];
    plan = Physical.Seq_scan { alias = "t"; table = "t"; filter = [] };
    est = { Cost_model.rows = 1.; width = 4; pages = 1.; cost = 1. };
    search = { Search_stats.join_plans = 0; group_plans = 0; entries = 0;
               pullups = 0 };
    opt_ms = 0.;
    epoch = 0;
    mv = None;
    bytes = 100;
  }

let lru_eviction_order () =
  let c = Plan_cache.create ~max_entries:3 () in
  List.iter (fun k -> Plan_cache.add c (dummy_entry k)) [ "a"; "b"; "c" ];
  Alcotest.(check (list string)) "LRU to MRU" [ "a"; "b"; "c" ]
    (Plan_cache.keys_lru c);
  Alcotest.(check bool) "find refreshes recency" true
    (Plan_cache.find c "a" ~epoch:0 <> None);
  Alcotest.(check (list string)) "a is now MRU" [ "b"; "c"; "a" ]
    (Plan_cache.keys_lru c);
  Plan_cache.add c (dummy_entry "d");
  Alcotest.(check (list string)) "b (the LRU) was evicted" [ "c"; "a"; "d" ]
    (Plan_cache.keys_lru c);
  let k = Plan_cache.counters c in
  Alcotest.(check int) "one eviction" 1 k.Plan_cache.evictions;
  (* byte-bounded eviction *)
  let c2 = Plan_cache.create ~max_entries:100 ~max_bytes:250 () in
  List.iter (fun k -> Plan_cache.add c2 (dummy_entry k)) [ "x"; "y"; "z" ];
  Alcotest.(check (list string)) "byte budget keeps two entries" [ "y"; "z" ]
    (Plan_cache.keys_lru c2)

let epoch_counter () =
  let cat = Catalog.create ~frames:32 () in
  Alcotest.(check int) "fresh catalog at epoch 0" 0 (Catalog.epoch cat);
  ignore
    (Catalog.add_table cat ~name:"t"
       ~columns:[ ("k", Datatype.Int); ("v", Datatype.Int) ]
       ~pk:[ "k" ]
       (List.init 10 (fun i -> Tuple.make [ Value.Int i; Value.Int (i * i) ])));
  Alcotest.(check int) "DDL bumps the epoch" 1 (Catalog.epoch cat);
  Catalog.refresh_stats cat;
  Alcotest.(check int) "stats refresh bumps the epoch" 2 (Catalog.epoch cat);
  Catalog.bump_epoch cat;
  Alcotest.(check int) "manual bump" 3 (Catalog.epoch cat)

let check_source name expected (p : Service.planned) =
  Alcotest.(check string) name
    (Service.source_label expected)
    (Service.source_label p.Service.source)

let epoch_invalidation () =
  let cat = Emp_dept.load () in
  let svc = Service.create cat in
  let stmt =
    Service.prepare svc
      "SELECT e.dno AS dno, MAX(e.sal) AS m FROM emp e WHERE e.age > 40 GROUP \
       BY e.dno"
  in
  check_source "first call misses" Service.Miss (Service.plan svc stmt);
  check_source "second call hits" Service.Hit (Service.plan svc stmt);
  Catalog.refresh_stats cat;
  check_source "stale plan is not served after refresh" Service.Miss
    (Service.plan svc stmt);
  let s = Service.stats svc in
  Alcotest.(check int) "refresh invalidated the entry" 1
    s.Service.invalidations;
  Alcotest.(check int) "no stale hits ever" 0 s.Service.stale_hits;
  check_source "re-cached plan hits again" Service.Hit (Service.plan svc stmt)

(* Regression: two bound predicates on one indexed column ('e.dno = ?1 AND
   e.dno <= ?2') both fold into the index bounds, and only the tightest value
   survives as the bound.  Prepared with (10, 20) the tightest bound comes
   from the equality; re-bound to (15, 5) it comes from the other predicate,
   and the correct answer is empty.  The served plan must agree with a fresh
   optimization — the bound folding may not lose the weaker predicate.
   (emp is clustered on dno, so the optimizer does pick the index scan.) *)
let rebind_multi_bound_same_column () =
  let cat = Emp_dept.load () in
  let svc = Service.create cat in
  let sql = "SELECT e.eno AS eno FROM emp e WHERE e.dno = 10 AND e.dno <= 20" in
  let stmt = Service.prepare svc sql in
  let _, rel0, _ = Service.execute svc stmt in
  Alcotest.(check bool) "prepared parameters find rows" true
    (Relation.cardinality rel0 > 0);
  (* Canonical parameter order is an implementation detail: rebind by value
     (the equality was prepared with 10, the range bound with 20). *)
  let ps =
    List.map
      (function
        | Value.Int 10 -> Value.Int 15  (* e.dno = 15 *)
        | Value.Int 20 -> Value.Int 5  (* e.dno <= 5 *)
        | v -> v)
      (Service.stmt_params stmt)
  in
  let p, rel, _ = Service.execute ~params:ps svc stmt in
  (match p.Service.source with
   | Service.Hit_rebound | Service.Rebind_conflict | Service.Recost_fallback ->
     ()
   | s ->
     Alcotest.failf "unexpected source %s" (Service.source_label s));
  let fresh = Optimizer.optimize cat (Canon.substitute (bind cat sql) ps) in
  let expected = Executor.run (Exec_ctx.create cat) fresh.Optimizer.plan in
  Alcotest.(check bool) "re-bound contradictory range is empty" true
    (Relation.is_empty expected);
  Alcotest.(check bool) "served rows match fresh optimization" true
    (Relation.multiset_equal expected rel)

let explicit_invalidation_counts () =
  let cat = Emp_dept.load () in
  let svc = Service.create cat in
  let stmt =
    Service.prepare svc
      "SELECT e.dno AS dno, MAX(e.sal) AS m FROM emp e WHERE e.age > 40 GROUP \
       BY e.dno"
  in
  ignore (Service.plan svc stmt);
  Service.invalidate_all svc;
  let s = Service.stats svc in
  Alcotest.(check int) "explicit drop counted as invalidation" 1
    s.Service.invalidations;
  Alcotest.(check int) "cache emptied" 0 s.Service.entries;
  check_source "next call misses" Service.Miss (Service.plan svc stmt)

let substitute_rejects_type_mismatch () =
  let cat = Emp_dept.load () in
  let q =
    bind cat
      "SELECT e.dno AS dno, MAX(e.sal) AS m FROM emp e WHERE e.age > 40 GROUP \
       BY e.dno"
  in
  let raised =
    try
      ignore (Canon.substitute q [ Value.String "forty" ]);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "ill-typed parameter raises" true raised;
  (* same arity, right type: accepted *)
  ignore (Canon.substitute q [ Value.Int 50 ])

let replay_splits_statements () =
  let stmts =
    Replay.split_statements
      "-- comment line\nSELECT 1;;\n\nCREATE VIEW v AS SELECT 2; SELECT 3;;\n"
  in
  Alcotest.(check (list string)) "statements"
    [ "SELECT 1"; "CREATE VIEW v AS SELECT 2; SELECT 3" ]
    stmts

let tests =
  [
    Alcotest.test_case "FNV-1a published vectors" `Quick fnv1a_vectors;
    Alcotest.test_case "canonicalization shares templates" `Quick
      canonicalization_shares_templates;
    Alcotest.test_case "LRU eviction order" `Quick lru_eviction_order;
    Alcotest.test_case "catalog epoch counter" `Quick epoch_counter;
    Alcotest.test_case "epoch invalidation" `Quick epoch_invalidation;
    Oracle_tests.rebound_plans;
    Alcotest.test_case "re-binding honours multiple bounds on one column"
      `Quick rebind_multi_bound_same_column;
    Alcotest.test_case "explicit invalidation is counted" `Quick
      explicit_invalidation_counts;
    Alcotest.test_case "substitute rejects ill-typed parameters" `Quick
      substitute_rejects_type_mismatch;
    Alcotest.test_case "replay statement splitting" `Quick
      replay_splits_statements;
    Oracle_tests.cached_plan_identity;
  ]
