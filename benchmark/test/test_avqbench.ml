(* Fast checks of the benchmark's own logic: statement streams, the
   reference evaluator, the compare verdicts, and BENCHMARK.json. *)

open Avqbench_lib

(* Catalogs with each workload's schema.  scan_star's is shrunk from scale
   4: binding only needs the schema, and the streams draw constants from
   column ranges that do not depend on the scale. *)
let catalog (w : Streams.t) =
  let scale = if w.Streams.db = Streams.Star then 1 else w.Streams.scale in
  Streams.load w.Streams.db ~scale

let catalogs = lazy (List.map (fun w -> (w, catalog w)) Streams.all)

let take n gen = List.init n (fun _ -> gen ())

let statements (w : Streams.t) cat ~seed n =
  List.concat
    (List.init w.Streams.read_conns (fun conn -> take n (Streams.reads w cat ~seed ~conn)))
  @ List.init 20 (Streams.insert_sql w cat ~seed)

let test_deterministic () =
  List.iter
    (fun ((w : Streams.t), cat) ->
      let a = statements w cat ~seed:3 200 and b = statements w cat ~seed:3 200 in
      Alcotest.(check (list string)) (w.Streams.name ^ ": same seed") a b;
      Alcotest.(check bool)
        (w.Streams.name ^ ": another seed differs")
        true
        (a <> statements w cat ~seed:4 200))
    (Lazy.force catalogs)

let test_binds () =
  List.iter
    (fun ((w : Streams.t), cat) ->
      List.iter
        (fun sql ->
          match Parser.parse_script sql with
          | [ Sql_ast.S_insert { it_table; it_rows } ] ->
            ignore (Binder.bind_insert cat ~table:it_table it_rows)
          | _ -> (
            match Binder.bind_sql cat sql with
            | _ -> ()
            | exception Binder.Bind_error m -> Alcotest.failf "%s: %s\n%s" w.Streams.name m sql))
        (statements w cat ~seed:11 300);
      Option.iter
        (fun ddl ->
          match Parser.parse_script ddl with
          | [ Sql_ast.S_create_matview { mv_name; mv_body } ] ->
            ignore (Binder.bind_matview_body cat ~name:mv_name mv_body)
          | _ -> Alcotest.fail "matview DDL does not parse as one statement")
        w.Streams.matview)
    (Lazy.force catalogs)

(* On a workload that writes, the traced pass must replay what the served
   run sent, after the correctness gate has built its reference from the
   acknowledged INSERTs. *)
let test_replay_after_ingest () =
  let w = Option.get (Streams.find "ingest_mix") in
  let cat = List.assq w (Lazy.force catalogs) in
  let seed = 7 in
  let served_reads = take 400 (Streams.reads w cat ~seed ~conn:0) in
  let acked = List.init 200 (Streams.insert_sql w cat ~seed) in
  let count c =
    match Relation.tuples (Oracle.reference c "SELECT COUNT(*) AS n FROM emp x") with
    | [ [| Value.Int n |] ] -> n
    | _ -> -1
  in
  let expected = Oracle.after_inserts w acked in
  Alcotest.(check int) "reference holds the seed rows and every inserted row"
    (count cat + (2 * List.length acked))
    (count expected);
  let replayed = Streams.replay_stream w cat ~seed in
  let reads = List.filter_map (function Streams.Read s -> Some s | _ -> None) replayed in
  let writes = List.filter_map (function Streams.Write s -> Some s | _ -> None) replayed in
  Alcotest.(check (list string)) "replayed reads are the served reads"
    (List.filteri (fun i _ -> i < List.length reads) served_reads) reads;
  Alcotest.(check (list string)) "replayed INSERTs are the served INSERTs"
    (List.filteri (fun i _ -> i < List.length writes) acked) writes

let test_adhoc_fingerprints () =
  let w = Option.get (Streams.find "adhoc_views") in
  let cat = List.assq w (Lazy.force catalogs) in
  let svc = Service.create cat in
  let fps = Hashtbl.create 2048 in
  List.iter
    (fun sql -> Hashtbl.replace fps (Service.stmt_fingerprint (Service.prepare svc sql)) ())
    (take 2000 (Streams.reads w cat ~seed:1 ~conn:0));
  let n = Hashtbl.length fps in
  if n < 1000 then Alcotest.failf "%d distinct fingerprints in 2000 statements" n

(* The hash-join evaluator must give Logical.eval's bag; tiny catalogs keep
   Logical's nested loops affordable. *)
let test_oracle_agrees () =
  let small = function
    | Streams.Empdept ->
      Emp_dept.load ~params:{ Emp_dept.default_params with Emp_dept.emps = 300; depts = 6; seed = 5 } ()
    | Streams.Tpcd ->
      Tpcd.load ~params:{ Tpcd.default_params with Tpcd.customers = 8; parts = 12; suppliers = 5; seed = 5 } ()
    | Streams.Star ->
      Star.load ~params:{ Star.default_params with Star.days = 8; products = 10; rows_per_day = 12; seed = 5 } ()
  in
  List.iter
    (fun (w : Streams.t) ->
      let cat = small w.Streams.db in
      List.iter
        (fun sql ->
          let want = Block.reference_eval cat (Binder.bind_sql cat sql) in
          let got = Oracle.reference cat sql in
          if not (Relation.multiset_equal want got) then
            Alcotest.failf "%s: oracle differs from Logical.eval on\n%s" w.Streams.name sql;
          let body = Format.asprintf "%a" Relation.pp want in
          let rows = Relation.cardinality want in
          (match Oracle.check ~rows ~body got with
           | Ok () -> ()
           | Error e -> Alcotest.failf "rendered reference does not match itself: %s" e);
          if Result.is_ok (Oracle.check ~rows:(rows + 1) ~body got) then
            Alcotest.fail "a wrong row count passed the check")
        (take 40 (Streams.reads w cat ~seed:2 ~conn:0)))
    Streams.all

let test_reply_rows () =
  let body = "x.a    | x.b\n--------------\n1      | 2.5\nfoo    | 3\n(2 rows)" in
  Alcotest.(check (list (list string))) "cells" [ [ "1"; "2.5" ]; [ "foo"; "3" ] ]
    (Oracle.body_rows body);
  Alcotest.(check bool) "float tolerance" true (Oracle.cell_equal "0.1" "0.1000000000001");
  Alcotest.(check bool) "different floats" false (Oracle.cell_equal "0.1" "0.1001")

let test_quartiles () =
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let q1, m, q3 = Quantiles.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check (list (float 1e-12))) "python quartiles" [ 2.75; 5.5; 8.25 ] [ q1; m; q3 ]

let test_verdicts () =
  let judge ?(bound = 0.1) ?(better = Metric_defs.Lower) a b =
    let _, _, _, v = Verdict.judge ~better ~bound a b in
    Verdict.label v
  in
  let check name want got = Alcotest.(check string) name want got in
  check "same runs" "unchanged" (judge [ 10.; 10.1; 9.9 ] [ 10.05; 9.95; 10. ]);
  check "slower beyond bound" "worse" (judge [ 10.; 10.1; 9.9 ] [ 12.; 12.1; 11.9 ]);
  check "faster beyond bound" "better" (judge [ 10.; 10.1; 9.9 ] [ 8.; 8.1; 7.9 ]);
  check "higher is better" "worse"
    (judge ~better:Metric_defs.Higher [ 100.; 101.; 99. ] [ 80.; 81.; 79. ]);
  check "spread wider than the bound" "unresolved"
    (judge [ 5.; 10.; 15.; 20. ] [ 6.; 10.5; 14.; 21. ]);
  check "wide spread, every run better" "better"
    (judge [ 10.; 14.; 18.; 22. ] [ 1.; 2.; 3.; 4. ]);
  check "zero base, any increase counts" "worse" (judge ~bound:0. [ 0.; 0.; 0. ] [ 0.01; 0.01; 0.01 ])

let test_compare_files () =
  let run workload v =
    Jsonv.of_string
      (Printf.sprintf
         {|{"workload": "%s", "end_to_end": {"p50_ms": {"value": %g, "unit": "ms"}},
            "per_layer": {"exec.run_ms": {"value": %g, "unit": "ms"}}}|}
         workload v v)
    |> Verdict.run_of_json |> Option.get
  in
  let rows =
    Verdict.compare [ run "w" 10.; run "w" 10.2; run "w" 9.9 ] [ run "w" 13.; run "w" 13.1; run "w" 12.9 ]
  in
  let verdict m =
    (List.find (fun r -> r.Verdict.r_metric = m) rows).Verdict.r_verdict |> Option.map Verdict.label
  in
  Alcotest.(check (option string)) "e2e metric judged" (Some "worse") (verdict "p50_ms");
  Alcotest.(check (option string)) "per-layer metric only reported" None (verdict "exec.run_ms")

let test_benchmark_json () =
  let j = Jsonv.of_string (In_channel.with_open_text "../../BENCHMARK.json" In_channel.input_all) in
  let names section = List.filter_map (fun e -> Jsonv.to_str (Jsonv.member "name" e)) (Jsonv.to_list (Jsonv.member section j)) in
  Alcotest.(check (list string)) "workloads" (List.map (fun w -> w.Streams.name) Streams.all) (names "workloads");
  List.iter
    (fun e ->
      let name = Option.get (Jsonv.to_str (Jsonv.member "name" e)) in
      let w = Option.get (Streams.find name) in
      Alcotest.(check (option string)) (name ^ " why") (Some w.Streams.why) (Jsonv.to_str (Jsonv.member "why" e)))
    (Jsonv.to_list (Jsonv.member "workloads" j));
  let expect section defs ~bounded =
    let entries = Jsonv.to_list (Jsonv.member section j) in
    Alcotest.(check (list string)) section (List.map (fun d -> d.Metric_defs.name) defs) (names section);
    List.iter2
      (fun (d : Metric_defs.def) e ->
        Alcotest.(check (option string)) (d.name ^ " unit") (Some d.unit) (Jsonv.to_str (Jsonv.member "unit" e));
        Alcotest.(check (option string)) (d.name ^ " better") (Some (Metric_defs.better_label d.better))
          (Jsonv.to_str (Jsonv.member "better" e));
        if bounded then
          Alcotest.(check (option (float 1e-12))) (d.name ^ " bound") (Some d.bound) (Jsonv.to_num (Jsonv.member "bound" e)))
      defs entries
  in
  expect "end_to_end" (List.filter (fun d -> d.Metric_defs.gated) Metric_defs.end_to_end) ~bounded:true;
  expect "per_layer" Metric_defs.per_layer ~bounded:false

let () =
  Alcotest.run "avqbench"
    [
      ( "streams",
        [
          Alcotest.test_case "same seed, same statements" `Quick test_deterministic;
          Alcotest.test_case "every statement binds" `Quick test_binds;
          Alcotest.test_case "adhoc_views outgrows the plan cache" `Quick test_adhoc_fingerprints;
          Alcotest.test_case "traced replay survives the ingest check" `Quick test_replay_after_ingest;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "agrees with Logical.eval" `Quick test_oracle_agrees;
          Alcotest.test_case "reply rows and float tolerance" `Quick test_reply_rows;
        ] );
      ( "compare",
        [
          Alcotest.test_case "python quartiles" `Quick test_quartiles;
          Alcotest.test_case "verdicts" `Quick test_verdicts;
          Alcotest.test_case "result files" `Quick test_compare_files;
          Alcotest.test_case "BENCHMARK.json matches the metric table" `Quick test_benchmark_json;
        ] );
    ]
