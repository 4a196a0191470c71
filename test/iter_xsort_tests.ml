(* External sort internals and execution-context hygiene. *)

let mk_tuples l = List.map (fun i -> Tuple.make [ Value.Int i ]) l

let multi_pass_merge () =
  (* work_mem = 3 => fan-in 2; 40 pages of data => several merge passes. *)
  let cat = Catalog.create ~frames:512 () in
  ignore
    (Catalog.add_table cat ~name:"t"
       ~columns:[ ("x", Datatype.Int) ]
       ~pk:[ "x" ]
       (mk_tuples (List.init 20_000 (fun i -> (i * 7919) mod 65536))));
  let ctx = Exec_ctx.create ~work_mem:3 cat in
  let scan = Physical.Seq_scan { alias = "a"; table = "t"; filter = [] } in
  let sorted =
    Executor.run ctx
      (Physical.Sort { input = scan; cols = [ Schema.column ~qual:"a" "x" Datatype.Int ] ; desc = [] })
  in
  Alcotest.(check int) "cardinality preserved" 20_000 (Relation.cardinality sorted);
  let rec is_sorted = function
    | a :: (b :: _ as rest) ->
      Value.compare (Tuple.get a 0) (Tuple.get b 0) <= 0 && is_sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "fully sorted through multiple passes" true
    (is_sorted (Relation.tuples sorted))

let temp_cleanup () =
  let cat = Catalog.create ~frames:64 () in
  ignore
    (Catalog.add_table cat ~name:"t"
       ~columns:[ ("x", Datatype.Int) ]
       ~pk:[ "x" ] (mk_tuples (List.init 5000 (fun i -> i))));
  let ctx = Exec_ctx.create ~work_mem:3 cat in
  let scan = Physical.Seq_scan { alias = "a"; table = "t"; filter = [] } in
  (* Run a spilling sort, then ensure cleanup drops every temp frame. *)
  ignore
    (Executor.run ctx
       (Physical.Sort { input = scan; cols = [ Schema.column ~qual:"a" "x" Datatype.Int ] ; desc = [] }));
  Exec_ctx.cleanup ctx;
  (* A second identical run must behave identically: no temp leakage. *)
  let r2 =
    Executor.run ctx
      (Physical.Sort { input = scan; cols = [ Schema.column ~qual:"a" "x" Datatype.Int ] ; desc = [] })
  in
  Alcotest.(check int) "second run identical" 5000 (Relation.cardinality r2)

let sort_comparator_fallback () =
  (* by_columns resolves re-qualified columns via name lookup. *)
  let schema = Schema.of_columns [ Schema.column ~qual:"other" "x" Datatype.Int ] in
  let t = Tuple.make [ Value.Int 0 ] in
  match Xsort.by_columns schema [ Schema.column ~qual:"ghost" "y" Datatype.Int ] t t with
  | exception Expr.Unresolved_column _ -> ()
  | _ -> Alcotest.fail "expected Unresolved_column for unknown sort key"

let tests =
  [
    Alcotest.test_case "multi-pass external merge sort" `Quick multi_pass_merge;
    Alcotest.test_case "temp files cleaned up between runs" `Quick temp_cleanup;
    Alcotest.test_case "sort key resolution failure" `Quick sort_comparator_fallback;
  ]
