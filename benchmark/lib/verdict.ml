(* `avqbench compare`: per workload and metric, both sides' median and
   quartiles and a verdict against the metric's regression bound.  A side
   whose run-to-run spread (interquartile range over median) is wider than
   the bound cannot show "unchanged"; it reads "unresolved" unless every run
   of one side beats every run of the other by more than the bound. *)

type t = Better | Worse | Unchanged | Unresolved

let label = function
  | Better -> "better"
  | Worse -> "worse"
  | Unchanged -> "unchanged"
  | Unresolved -> "unresolved"

type side = { median : float; q1 : float; q3 : float; n : int }

let summarize xs =
  let q1, median, q3 = Quantiles.quartiles xs in
  { median; q1; q3; n = List.length xs }

let spread s =
  if s.q3 = s.q1 then 0.
  else if s.median = 0. then Float.infinity
  else (s.q3 -. s.q1) /. Float.abs s.median

(* Relative worsening of [b] against [a]: positive is worse. *)
let worsening better a b =
  let d = match better with Metric_defs.Lower -> b -. a | Metric_defs.Higher -> a -. b in
  if d = 0. then 0.
  else if a = 0. then Float.copy_sign Float.infinity d
  else d /. Float.abs a

let judge ~better ~bound a_vals b_vals =
  let a = summarize a_vals and b = summarize b_vals in
  let w = worsening better a.median b.median in
  let beats x y =
    match better with Metric_defs.Lower -> x < y | Metric_defs.Higher -> x > y
  in
  let every f = List.for_all (fun y -> List.for_all (fun x -> f x y) a_vals) b_vals in
  let verdict =
    if spread a > bound || spread b > bound then
      if w < -.bound && every (fun x y -> beats y x) then Better
      else if w > bound && every (fun x y -> beats x y) then Worse
      else Unresolved
    else if w > bound then Worse
    else if w < -.bound then Better
    else Unchanged
  in
  (a, b, w, verdict)

(* ---- result files ---- *)

type run = {
  workload : string;
  values : (string * (float * string)) list;  (** metric -> value, unit *)
}

let run_of_json j =
  let section name =
    List.filter_map
      (fun (k, v) ->
        match (Jsonv.to_num (Jsonv.member "value" v), Jsonv.to_str (Jsonv.member "unit" v)) with
        | Some x, Some u -> Some (k, (x, u))
        | _ -> None)
      (Jsonv.to_assoc (Jsonv.member name j))
  in
  match Jsonv.to_str (Jsonv.member "workload" j) with
  | Some workload -> Some { workload; values = section "end_to_end" @ section "per_layer" }
  | None -> None

type row = {
  r_workload : string;
  r_metric : string;
  r_unit : string;
  r_a : side;
  r_b : side;
  r_change : float;  (** relative worsening of the medians *)
  r_bound : float option;
  r_verdict : t option;  (** None for unbounded per-layer metrics *)
}

(* Bounds and directions come from [Metric_defs]; a test keeps its gated
   entries equal to BENCHMARK.json's.  A metric it does not know is
   reported without a verdict. *)
let compare a_runs b_runs =
  let keys =
    List.sort_uniq compare
      (List.concat_map (fun r -> List.map (fun (m, _) -> (r.workload, m)) r.values) a_runs)
  in
  let values runs (w, m) =
    List.filter_map
      (fun r -> if r.workload = w then List.assoc_opt m r.values else None)
      runs
  in
  List.filter_map
    (fun ((w, m) as key) ->
      match (values a_runs key, values b_runs key) with
      | [], _ | _, [] -> None
      | ((_, unit) :: _ as a), b ->
        let def = Metric_defs.find m in
        let better = match def with Some d -> d.Metric_defs.better | None -> Metric_defs.Lower in
        let limit =
          match def with
          | Some d when not (Float.is_nan d.Metric_defs.bound) -> Some d.Metric_defs.bound
          | _ -> None
        in
        let sa, sb, change, verdict =
          judge ~better ~bound:(Option.value ~default:0. limit) (List.map fst a) (List.map fst b)
        in
        Some
          {
            r_workload = w;
            r_metric = m;
            r_unit = unit;
            r_a = sa;
            r_b = sb;
            r_change = change;
            r_bound = limit;
            r_verdict = Option.map (fun _ -> verdict) limit;
          })
    keys

let pp_side ppf s = Format.fprintf ppf "%.4g [%.4g, %.4g] n=%d" s.median s.q1 s.q3 s.n

let pp_rows ppf rows =
  Format.fprintf ppf "%-12s %-26s %-8s %-32s %-32s %9s %7s  %s@." "workload" "metric"
    "unit" "A median [q1, q3]" "B median [q1, q3]" "worse by" "bound" "verdict";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-12s %-26s %-8s %-32s %-32s %8.1f%% %7s  %s@." r.r_workload
        r.r_metric r.r_unit
        (Format.asprintf "%a" pp_side r.r_a)
        (Format.asprintf "%a" pp_side r.r_b)
        (100. *. r.r_change)
        (match r.r_bound with Some b -> Printf.sprintf "%.0f%%" (100. *. b) | None -> "-")
        (match r.r_verdict with Some v -> label v | None -> "-"))
    rows
