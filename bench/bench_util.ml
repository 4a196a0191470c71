(* Shared helpers for the experiment harness. *)

(* ---- machine-readable benchmark records ----

   Experiments accumulate records as they run ([run_algo] records
   automatically); [main] writes the pending records to BENCH_E<k>.json
   after each experiment so CI can archive a perf trajectory. *)
module Json = struct
  (* Schema v2: every record is {name, config, metrics} — [config] holds the
     setup knobs that define the data point (strings), [metrics] the measured
     quantities (numbers).  [io], [wall_ms] and [rows_per_sec] are present in
     every record; experiments append extras ([hit_ratio], [overhead], ...).
     The envelope carries the schema version and a run timestamp supplied by
     the runner, so archived files from different CI runs are comparable. *)

  let schema_version = 2

  type record = {
    rname : string;
    rconfig : (string * string) list;
    rmetrics : (string * float) list;
  }

  let pending : record list ref = ref []

  let record ~name ?(config = []) ?(extra = []) ~io ~wall_ms ~rows_per_sec () =
    pending :=
      { rname = name;
        rconfig = config;
        rmetrics =
          ("io", float_of_int io) :: ("wall_ms", wall_ms)
          :: ("rows_per_sec", rows_per_sec) :: extra }
      :: !pending

  let escape s =
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | c when Char.code c < 32 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let num x =
    if Float.is_nan x then "0"
    else if Float.is_integer x && Float.abs x < 1e15 then
      Printf.sprintf "%.0f" x
    else Printf.sprintf "%.6g" x

  let write ~exp ~ts =
    let recs = List.rev !pending in
    pending := [];
    let oc = open_out (Printf.sprintf "BENCH_%s.json" exp) in
    let out fmt = Printf.fprintf oc fmt in
    out "{\n  \"experiment\": \"%s\",\n  \"schema\": %d,\n  \"ts\": %.3f,\n  \"records\": ["
      (escape exp) schema_version ts;
    List.iteri
      (fun i r ->
        out "%s\n    { \"name\": \"%s\", \"config\": {"
          (if i = 0 then "" else ",")
          (escape r.rname);
        List.iteri
          (fun j (k, v) ->
            out "%s\"%s\": \"%s\"" (if j = 0 then "" else ", ") (escape k)
              (escape v))
          r.rconfig;
        out "}, \"metrics\": {";
        List.iteri
          (fun j (k, v) ->
            out "%s\"%s\": %s" (if j = 0 then "" else ", ") (escape k) (num v))
          r.rmetrics;
        out "} }")
      recs;
    out "\n  ]\n}\n";
    close_out oc
end

type outcome = {
  est_cost : float;
  reads : int;
  writes : int;
  rows : int;
  opt_ms : float;
  search : Search_stats.t;
  plan : Physical.t;
}

let algo_name = function
  | Optimizer.Traditional -> "traditional"
  | Optimizer.Greedy_conservative -> "greedy"
  | Optimizer.Paper -> "paper"

let run_algo ?(work_mem = 32) ?paper_opts ?tag cat query algorithm =
  let options =
    {
      Optimizer.default_options with
      algorithm;
      work_mem;
      paper = Option.value ~default:Paper_opt.default_options paper_opts;
    }
  in
  let r = Optimizer.optimize ~options cat query in
  let opt_ms = r.Optimizer.time_ms in
  let ctx = Exec_ctx.create ~work_mem cat in
  let t0 = Unix.gettimeofday () in
  let rel, io = Executor.run_measured ~cold:true ctx r.Optimizer.plan in
  let wall_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  let nrows = Relation.cardinality rel in
  Json.record
    ~name:(Option.value ~default:(algo_name algorithm) tag)
    ~config:[ ("algo", algo_name algorithm); ("work_mem", string_of_int work_mem) ]
    ~io:(io.Buffer_pool.reads + io.Buffer_pool.writes)
    ~wall_ms
    ~rows_per_sec:
      (if wall_ms > 0. then float_of_int nrows /. (wall_ms /. 1000.) else 0.)
    ();
  {
    est_cost = r.Optimizer.est.Cost_model.cost;
    reads = io.Buffer_pool.reads;
    writes = io.Buffer_pool.writes;
    rows = Relation.cardinality rel;
    opt_ms;
    search = r.Optimizer.search;
    plan = r.Optimizer.plan;
  }

let io_total o = o.reads + o.writes

(* Plan shape fingerprints for the Figure 4 discussion. *)
let rec count_joins = function
  | Physical.Block_nl_join j -> 1 + count_joins j.left + count_joins j.right
  | Physical.Hash_join j -> 1 + count_joins j.left + count_joins j.right
  | Physical.Merge_join j -> 1 + count_joins j.left + count_joins j.right
  | Physical.Index_nl_join j -> 1 + count_joins j.left
  | Physical.Seq_scan _ | Physical.Index_scan _ -> 0
  | Physical.Filter f -> count_joins f.input
  | Physical.Sort s -> count_joins s.input
  | Physical.Hash_group g | Physical.Sort_group g -> count_joins g.input
  | Physical.Project p -> count_joins p.input
  | Physical.Materialize m -> count_joins m.input
  | Physical.Limit l -> count_joins l.input

let rec count_groups = function
  | Physical.Hash_group g | Physical.Sort_group g -> 1 + count_groups g.input
  | Physical.Block_nl_join j -> count_groups j.left + count_groups j.right
  | Physical.Hash_join j -> count_groups j.left + count_groups j.right
  | Physical.Merge_join j -> count_groups j.left + count_groups j.right
  | Physical.Index_nl_join j -> count_groups j.left
  | Physical.Seq_scan _ | Physical.Index_scan _ -> 0
  | Physical.Filter f -> count_groups f.input
  | Physical.Sort s -> count_groups s.input
  | Physical.Project p -> count_groups p.input
  | Physical.Materialize m -> count_groups m.input
  | Physical.Limit l -> count_groups l.input

(* Inputs of the topmost group-by operators. *)
let rec top_group_inputs = function
  | Physical.Hash_group g | Physical.Sort_group g -> [ g.Physical.input ]
  | Physical.Block_nl_join j -> top_group_inputs j.left @ top_group_inputs j.right
  | Physical.Hash_join j -> top_group_inputs j.left @ top_group_inputs j.right
  | Physical.Merge_join j -> top_group_inputs j.left @ top_group_inputs j.right
  | Physical.Index_nl_join j -> top_group_inputs j.left
  | Physical.Seq_scan _ | Physical.Index_scan _ -> []
  | Physical.Filter f -> top_group_inputs f.input
  | Physical.Sort s -> top_group_inputs s.input
  | Physical.Project p -> top_group_inputs p.input
  | Physical.Materialize m -> top_group_inputs m.input
  | Physical.Limit l -> top_group_inputs l.input

(* Compact shape signature: (#groups, joins below the topmost group-bys,
   joins above them).  "Joins above > 0" means group-bys were evaluated
   early (push-down / pull-up placed them under later joins). *)
let shape plan =
  let groups = count_groups plan in
  let below =
    List.fold_left (fun acc t -> acc + count_joins t) 0 (top_group_inputs plan)
  in
  let total = count_joins plan in
  (groups, below, total - below)

let shape_label plan =
  let groups, below, above = shape plan in
  Printf.sprintf "%dG;%dJin;%dJout" groups below above

(* ---- tiny fixed-width table printer ---- *)

let print_table ~title ~header rows =
  let ncols = List.length header in
  let widths = Array.make ncols 0 in
  let measure row =
    List.iteri (fun i c -> widths.(i) <- max widths.(i) (String.length c)) row
  in
  measure header;
  List.iter measure rows;
  Printf.printf "\n### %s\n" title;
  let line row =
    String.concat "  "
      (List.mapi (fun i c -> Printf.sprintf "%-*s" widths.(i) c) row)
  in
  print_endline (line header);
  print_endline (String.make (String.length (line header)) '-');
  List.iter (fun r -> print_endline (line r)) rows

let f1 x = Printf.sprintf "%.1f" x
let f2 x = Printf.sprintf "%.2f" x
let i s = string_of_int s
