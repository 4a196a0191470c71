let strip_comments text =
  String.split_on_char '\n' text
  |> List.filter (fun line ->
         let t = String.trim line in
         not (String.length t >= 2 && t.[0] = '-' && t.[1] = '-'))
  |> String.concat "\n"

let split_statements text =
  let text = strip_comments text in
  let out = ref [] in
  let buf = Buffer.create 128 in
  let flush () =
    let s = String.trim (Buffer.contents buf) in
    Buffer.clear buf;
    if s <> "" then out := s :: !out
  in
  let n = String.length text in
  let i = ref 0 in
  while !i < n do
    if !i + 1 < n && text.[!i] = ';' && text.[!i + 1] = ';' then begin
      flush ();
      i := !i + 2
    end
    else begin
      Buffer.add_char buf text.[!i];
      incr i
    end
  done;
  flush ();
  List.rev !out

(* Session directives and statement modifiers, classified before execution.
   [\metrics] dumps the registry; an [EXPLAIN ANALYZE] prefix runs the rest
   of the statement under profiling and renders the annotated tree. *)
type classified =
  | Directive_metrics of [ `Json | `Prometheus ]
  | Directive_stats of [ `Show | `Reset ]
  | Directive_matviews
  | Directive_checkpoint
  | Explain_analyze of string
  | Update of string
      (** INSERT or MATERIALIZED VIEW DDL: mutates shared state, so pool
          replay treats it as a barrier *)
  | Plain of string

let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

let strip_prefix ~prefix s =
  let n = String.length prefix and l = String.length s in
  if l > n && String.lowercase_ascii (String.sub s 0 n) = prefix && is_space s.[n]
  then Some (String.trim (String.sub s n (l - n)))
  else None

let classify sql =
  let t = String.trim sql in
  let lt = String.lowercase_ascii t in
  let has_prefix p =
    String.length lt > String.length p
    && String.sub lt 0 (String.length p) = p
    && is_space lt.[String.length p]
  in
  match lt with
  | "\\metrics" | "\\metrics json" -> Directive_metrics `Json
  | "\\metrics prom" | "\\metrics prometheus" -> Directive_metrics `Prometheus
  | "\\stats" -> Directive_stats `Show
  | "\\stats reset" -> Directive_stats `Reset
  | "\\dm" -> Directive_matviews
  | "\\checkpoint" -> Directive_checkpoint
  | _ ->
    if
      has_prefix "insert" || has_prefix "create materialized"
      || has_prefix "drop materialized"
      || has_prefix "refresh materialized"
    then Update t
    else (
      match strip_prefix ~prefix:"explain analyze" t with
      | Some rest when rest <> "" -> Explain_analyze rest
      | _ -> Plain t)

let run_metrics svc fmt_kind =
  let m = Service.metrics svc in
  match fmt_kind with
  | `Json -> Metrics.to_json m
  | `Prometheus -> Metrics.to_prometheus m

let run_stats svc = function
  | `Reset ->
    Stmt_stats.reset (Service.stats_store svc);
    "statement statistics reset"
  | `Show ->
    let st = Service.stats_store svc in
    let buf = Buffer.create 512 in
    Buffer.add_string buf
      (Printf.sprintf "tracked=%d recorded=%d evictions=%d\n"
         (Stmt_stats.tracked st) (Stmt_stats.recorded st)
         (Stmt_stats.evictions st));
    Buffer.add_string buf
      (Printf.sprintf "%-16s %6s %5s %10s %9s %9s %8s  %s\n" "fingerprint"
         "calls" "errs" "total_ms" "mean_ms" "p95_ms" "rows" "query");
    List.iter
      (fun (s : Stmt_stats.stat) ->
        let q =
          if String.length s.query > 48 then String.sub s.query 0 45 ^ "..."
          else s.query
        in
        Buffer.add_string buf
          (Printf.sprintf "%-16s %6d %5d %10.2f %9.3f %9.3f %8d  %s\n"
             s.fingerprint s.calls s.errors s.total_ms s.mean_ms s.p95_ms
             s.rows q))
      (Stmt_stats.top ~n:20 st);
    Buffer.contents buf

type outcome =
  | Executed of Service.planned * Relation.t
  | Rendered of string
  | Completed of string
  | Failed of { kind : string; detail : string }

type line = { index : int; sql : string; outcome : outcome }

let failed ?(report = "") e =
  Failed
    {
      kind = Avq_error.kind_label e;
      detail =
        (if report = "" then Avq_error.to_string e
         else Avq_error.to_string e ^ "\n" ^ report);
    }

(* The service types every statement failure; anything untyped is an
   engine bug and propagates. *)
let guard f = try f () with Avq_error.Error e -> failed e

let dispatch ?(limits = Service.no_limits) ~query ~run svc = function
  | Directive_metrics kind ->
    run `Directive (fun () -> Rendered (run_metrics svc kind))
  | Directive_stats kind ->
    run `Directive (fun () -> Rendered (run_stats svc kind))
  | Directive_matviews ->
    run `Directive (fun () -> Rendered (Service.render_matviews svc))
  | Directive_checkpoint ->
    run `Barrier (fun () -> Completed (Service.checkpoint svc))
  | Explain_analyze sql ->
    run `Barrier (fun () ->
        guard (fun () ->
            match Service.explain_analyze_sql ~limits svc sql with
            | Ok body -> Rendered body
            | Error (e, report) -> failed ~report e))
  | Update sql ->
    run `Barrier (fun () ->
        guard (fun () -> Completed (Service.exec_statement svc sql)))
  | Plain sql ->
    let await = query sql in
    run `Query (fun () ->
        guard (fun () ->
            let p, rel, _io = await () in
            Executed (p, rel)))

(* A lifecycle drain (Ctrl-C / SIGTERM) stops the replay between
   statements: already-executed lines keep their outcomes, the rest are
   never started.  In-flight work is stopped by the lifecycle abort flag
   through the executor's own poll points, not from here. *)
let replay svc text =
  let run_one sql =
    dispatch svc (classify sql)
      ~query:(fun q () -> Service.submit svc q)
      ~run:(fun _ f -> f ())
  in
  let rec go i acc = function
    | [] -> List.rev acc
    | _ :: _ when Lifecycle.draining () -> List.rev acc
    | sql :: rest ->
      go (i + 1) ({ index = i; sql; outcome = run_one sql } :: acc) rest
  in
  go 1 [] (split_statements text)

(* Pool replay: runs of consecutive plain queries are submitted to the pool
   up front, then awaited in order — the report stays deterministic
   per-line while execution itself is concurrent.  Every other statement
   is a barrier: it runs alone, after every earlier statement has
   completed and before any later one is submitted, so concurrent readers
   never race a catalog mutation and a [\metrics] line observes exactly
   the statements before it. *)
let replay_pool pool text =
  let svc = Service.Pool.service pool in
  let results = ref [] in
  let pending = ref [] in
  let flush () =
    List.iter
      (fun (sql, await) -> results := (sql, await ()) :: !results)
      (List.rev !pending);
    pending := []
  in
  List.iter
    (fun sql ->
      if not (Lifecycle.draining ()) then
        dispatch svc (classify sql)
          ~query:(fun q ->
            let fut = Service.Pool.submit_sql pool q in
            fun () -> Service.Pool.await fut)
          ~run:(fun schedule f ->
            match schedule with
            | `Query -> pending := (sql, f) :: !pending
            | `Directive | `Barrier ->
              flush ();
              results := (sql, f ()) :: !results))
    (split_statements text);
  flush ();
  List.mapi
    (fun i (sql, outcome) -> { index = i + 1; sql; outcome })
    (List.rev !results)

let first_line sql =
  match String.index_opt sql '\n' with
  | None -> sql
  | Some i -> String.sub sql 0 i ^ " ..."

let report fmt svc lines =
  List.iter
    (fun l ->
      match l.outcome with
      | Executed (p, rel) ->
        let mv =
          match Matview.rewritten_view p.Service.rewrite with
          | Some v -> Printf.sprintf "  [mv:%s]" v
          | None -> ""
        in
        Format.fprintf fmt "[%3d] %-15s %6d rows  est %10.1f  %6.2f ms  %s%s@."
          l.index
          (Service.source_label p.Service.source)
          (Relation.cardinality rel) p.Service.est.Cost_model.cost
          p.Service.plan_ms
          (first_line l.sql) mv
      | Rendered body | Completed body ->
        Format.fprintf fmt "[%3d] %s@.%s@." l.index (first_line l.sql) body
      | Failed { detail; _ } ->
        Format.fprintf fmt "[%3d] ERROR %s  %s@." l.index detail
          (first_line l.sql))
    lines;
  Format.fprintf fmt "@.%a@." Service.pp_stats (Service.stats svc)
