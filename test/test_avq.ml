let () =
  Alcotest.run "avq"
    [
      ("relation", Relation_tests.tests);
      ("storage", Storage_tests.tests);
      ("catalog", Catalog_tests.tests);
      ("expr", Expr_tests.tests);
      ("aggregate", Aggregate_tests.tests @ Aggregate_tests.udf_tests);
      ("logical", Logical_tests.tests);
      ("exec", Exec_tests.tests);
      ("iter_xsort", Iter_xsort_tests.tests);
      ("batch", Batch_tests.tests);
      ("cost", Cost_tests.tests);
      ("transform", Transform_tests.tests @ Transform_tests.rowid_tests);
      ("grouping", Grouping_tests.tests);
      ("optimizer", Optimizer_tests.tests @ Optimizer_tests.bushy_tests);
      ("plan_check", Plan_check_tests.tests);
      ("pretty", Pretty_tests.tests);
      ("moveround", Moveround_tests.tests);
      ("smoke", Smoke.tests);
      ("sql", Sql_tests.tests @ Sql_tests.more_tests @ Sql_tests.sugar_tests);
      ("workload", Oracle_tests.workload);
      ("oracle", Oracle_tests.tests);
      ("star", Star_tests.tests);
      ("matview", Matview_tests.tests);
      ("service", Service_tests.tests);
      ("errorpath", Errorpath_tests.tests);
      ("pool", Pool_tests.tests);
      ("fault", Fault_tests.tests);
      ("obs", Obs_tests.tests);
      ("sysview", Sysview_tests.tests);
      ("wal", Wal_tests.tests);
      ("net", Net_tests.tests);
    ]
