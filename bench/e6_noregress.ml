(* E6 — the paper's guarantee: "our cost-based optimization algorithm is
   guaranteed to pick a plan that is no worse than the traditional
   optimization algorithm."  The guarantee is stated in terms of the cost
   model; we check the estimated-cost ordering paper <= greedy <=
   traditional on random aggregate-view queries and also report the
   measured-IO outcome — once for simple single-relation views and once for
   rich ones (multi-relation views, HAVING, several aggregates), where cost
   estimation is harder and measured regressions become possible.  An
   ordering violation or a row-count mismatch between the algorithms fails
   the experiment (exit 1). *)

(* The table row of one class, and its count of violations and row
   mismatches. *)
let run_pass ~complexity ~n cat rng =
  let violations = ref 0 in
  let mismatches = ref 0 in
  let improved = ref 0 in
  let equal = ref 0 in
  let ratios = ref [] in
  for i = 1 to n do
    let q = Query_gen.generate ~complexity rng cat in
    let t = Bench_util.run_algo cat q Optimizer.Traditional in
    let g = Bench_util.run_algo cat q Optimizer.Greedy_conservative in
    let p = Bench_util.run_algo cat q Optimizer.Paper in
    let cost o = o.Bench_util.est_cost in
    if cost g > cost t +. 1e-6 || cost p > cost g +. 1e-6 then begin
      incr violations;
      Printf.printf
        "E6 VIOLATION: query %d est cost traditional %.3f, greedy %.3f, paper %.3f\n" i
        (cost t) (cost g) (cost p)
    end;
    let iot = Bench_util.io_total t and iop = Bench_util.io_total p in
    let ratio = float_of_int iot /. float_of_int (max 1 iop) in
    ratios := ratio :: !ratios;
    if iop < iot then incr improved else if iop = iot then incr equal;
    let rows o = o.Bench_util.rows in
    if rows g <> rows t || rows p <> rows t then begin
      incr mismatches;
      Printf.printf "E6 ROW MISMATCH: query %d rows traditional %d, greedy %d, paper %d\n" i
        (rows t) (rows g) (rows p)
    end
  done;
  let geo =
    exp (List.fold_left (fun acc r -> acc +. log r) 0. !ratios /. float_of_int n)
  in
  ( [
      (match complexity with `Simple -> "simple" | `Rich -> "rich");
      Bench_util.i !violations;
      Bench_util.i !improved;
      Bench_util.i !equal;
      Bench_util.i (n - !improved - !equal);
      Bench_util.f2 geo;
      Bench_util.f2 (List.fold_left max 1. !ratios);
      Bench_util.f2 (List.fold_left min infinity !ratios);
    ],
    !violations + !mismatches )

let run () =
  let params =
    { Tpcd.default_params with customers = 1500; orders_per_customer = 8;
      lines_per_order = 5; nations = 30 }
  in
  let cat = Tpcd.load ~params () in
  let n = 50 in
  let rows, failures =
    List.split
      [
        run_pass ~complexity:`Simple ~n cat (Rng.create ~seed:2024);
        run_pass ~complexity:`Rich ~n cat (Rng.create ~seed:2024);
      ]
  in
  let failures = List.fold_left ( + ) 0 failures in
  Bench_util.print_table
    ~title:
      (Printf.sprintf
         "E6  No-regression over %d random queries per class (est-viol: paper > greedy or greedy > traditional in estimated cost, must be 0; ratio = io(trad)/io(paper))"
         n)
    ~header:
      [ "queries"; "est-viol"; "improved"; "equal"; "worse"; "geo-ratio"; "max"; "min" ]
    rows;
  if failures > 0 then begin
    Printf.printf "E6 FAILED: %d ordering violations or row mismatches\n" failures;
    exit 1
  end
