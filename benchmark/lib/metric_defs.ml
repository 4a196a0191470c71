(* The metrics avqbench reports: name, unit, direction and — for end-to-end
   metrics — the regression bound (a share of the base median).  The
   regression-gated subset lives in BENCHMARK.json; a test keeps the two in
   agreement. *)

type better = Lower | Higher

type def = {
  name : string;
  unit : string;
  better : better;
  bound : float;  (** allowed relative worsening; 0 = any worsening counts *)
  gated : bool;
      (** measured on every workload and listed in BENCHMARK.json; the rest
          exist on one workload only and appear in result files *)
}

let e2e ?(gated = true) name unit better bound = { name; unit; better; bound; gated }

(* Client-side metrics of the served run, tracing off.  The host's speed
   drifts by up to 40% over minutes and the server notices a finished
   statement only at its next 10 ms poll, so what CPU-bound statements
   cost moves between identical runs: throughput on adhoc_views and
   scan_star varies 6-25%, their p90 and p99 15-40%.  Throughput carries
   the widest bound; the tail percentiles are reported and compared but not
   gated.  Set-up and recovery of a small catalog take tens of
   milliseconds, all of it CPU, and carry the widest bound as well. *)
let end_to_end =
  [
    e2e "throughput_sps" "1/s" Higher 0.25;
    e2e "p50_ms" "ms" Lower 0.10;
    e2e "setup_s" "s" Lower 0.25;
    e2e "server_rss_mb" "MB" Lower 0.10;
    e2e "p90_ms" "ms" Lower 0.25 ~gated:false;
    e2e "p99_ms" "ms" Lower 0.25 ~gated:false;
    (* zero on a healthy run, so it cannot carry a relative bound; any
       increase is a regression *)
    e2e "error_rate" "ratio" Lower 0. ~gated:false;
    (* ingest_mix only *)
    e2e "write_p50_ms" "ms" Lower 0.10 ~gated:false;
    e2e "write_p99_ms" "ms" Lower 0.10 ~gated:false;
    e2e "recovery_s" "s" Lower 0.25 ~gated:false;
  ]

let layer name unit better = { name; unit; better; bound = Float.nan; gated = true }

(* Per-layer metrics of the traced in-process pass (medians unless the name
   ends in .p99).  README.md maps each to the end-to-end metric and workload
   it should move. *)
let per_layer =
  [
    layer "net.server_ms" "ms" Lower;
    layer "net.server_overhead_ms" "ms" Lower;
    layer "net.client_gap_ms" "ms" Lower;
    layer "net.render_ms" "ms" Lower;
    layer "net.reply_bytes" "bytes" Lower;
    layer "sql.bind_ms" "ms" Lower;
    layer "service.prepare_ms" "ms" Lower;
    layer "service.plan_hit_ms" "ms" Lower;
    layer "service.plan_miss_ms" "ms" Lower;
    layer "service.plan_miss_ms.p99" "ms" Lower;
    layer "service.plan_hit_ratio" "ratio" Higher;
    layer "service.execute_ms" "ms" Lower;
    layer "service.pool_wait_ms" "ms" Lower;
    layer "service.insert_ms" "ms" Lower;
    layer "core.optimize_ms" "ms" Lower;
    layer "core.optimize_ms.p99" "ms" Lower;
    layer "core.dp_entries" "count" Lower;
    layer "matview.optimize_ms" "ms" Lower;
    layer "matview.rewrite_ratio" "ratio" Higher;
    layer "exec.run_ms" "ms" Lower;
    layer "exec.run_ms.p99" "ms" Lower;
    layer "exec.rows_out" "count" Lower;
    layer "exec.pages_touched" "count" Lower;
    layer "storage.pool_hit_ratio" "ratio" Higher;
    layer "wal.append_commit_ms" "ms" Lower;
    layer "wal.fsyncs_per_insert" "count" Lower;
    layer "wal.bytes_per_row" "bytes" Lower;
    layer "wal.recovery_ms" "ms" Lower;
    layer "catalog.load_ms" "ms" Lower;
    layer "trace.unaccounted_pct" "%" Lower;
    layer "trace.overhead_pct" "%" Lower;
  ]

let find name =
  List.find_opt (fun d -> String.equal d.name name) (end_to_end @ per_layer)

let better_label = function Lower -> "lower" | Higher -> "higher"
