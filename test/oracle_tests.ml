(* One differential oracle.  A case is one query on one catalog at work_mem
   4 (spills) or 32; [Block.reference_eval] answers it once, and every leg
   must agree: (1) algorithms: each algorithm's plan validates, passes
   [Plan_check] and returns the oracle's multiset; (2) E6: estimated cost
   paper <= greedy <= traditional; (3) plan cache: a miss, then a hit
   identical to a fresh optimization, and perturbed parameters give the
   substituted query's oracle; (4) pool: a session of repeated templates
   per catalog through [Service.Pool] at 2 and 4 workers; (5) writes: after
   appending copied rows to a table the query reads, it is re-planned and
   gives the new oracle; (6) views: each view without HAVING, materialized,
   answers its own body before and after the append, unless the append made
   it stale.  No leg may leave a temp file.  A typed [Avq_error.Error] is an
   accepted outcome; any other exception fails the case, naming the
   catalog, complexity, seed, work_mem, leg and algorithm, with the query.
   QCHECK_SEED replays a run.  Suite [oracle] runs generated queries
   through every leg; the differential tests of the other suites (batch,
   workload, plan_check, star, service, pool) are cases of this harness
   too, declared at the end of this file. *)

type catalog = { cname : string; load : unit -> Catalog.t; shared : Catalog.t Lazy.t }

let catalog cname load = { cname; load; shared = Lazy.from_fun load }

let tpcd customers ~orders ~lines ~parts ~suppliers =
  catalog (Printf.sprintf "tpcd(%d customers)" customers) (fun () ->
      Tpcd.load
        ~params:{ Tpcd.default_params with customers; orders_per_customer = orders;
                  lines_per_order = lines; parts; suppliers } ())

let star days ~products ~stores ~rows_per_day =
  catalog (Printf.sprintf "star(%d days)" days) (fun () ->
      Star.load ~params:{ Star.default_params with days; products; stores; rows_per_day } ())

(* The catalogs generated queries run on. *)
let tpcd_small = tpcd 50 ~orders:3 ~lines:3 ~parts:30 ~suppliers:8
let star_small = star 15 ~products:25 ~stores:5 ~rows_per_day:25
let chain = catalog "chain(250x4)" (fun () -> Chain.load ~rows:250 ~n:4 ())
let tpcd_tiny = tpcd 60 ~orders:3 ~lines:3 ~parts:40 ~suppliers:10

type case = { cat : catalog; label : string; seed : int; work_mem : int; q : Block.query }

exception Failed of string

let fail c ~leg ?algo fmt =
  Format.kasprintf
    (fun msg ->
      raise
        (Failed
           (Format.asprintf "catalog %s, %s, seed %d, work_mem %d, leg %s%s: %s@.%a"
              c.cat.cname c.label c.seed c.work_mem leg
              (match algo with Some a -> ", algorithm " ^ a | None -> "")
              msg Block.pp c.q)))
    fmt

(* [Some] the step's value, [None] when it failed with a typed error. *)
let guard c ~leg ?algo f =
  match f () with
  | v -> Some v
  | exception Avq_error.Error _ -> None
  | exception (Failed _ as e) -> raise e
  | exception e -> fail c ~leg ?algo "uncaught exception %s" (Printexc.to_string e)

let no_temps c ~leg cat =
  let n = Storage.live_temps (Catalog.storage cat) in
  if n <> 0 then fail c ~leg "%d temp files left behind" n

(* No cleanup on success, so a leaked temp shows in [no_temps]. *)
let run cat ~work_mem plan =
  let ctx = Exec_ctx.create ~work_mem cat in
  try Executor.run ctx plan with e -> Exec_ctx.cleanup ctx; raise e

let options ?(algorithm = Optimizer.Paper) work_mem =
  { Optimizer.default_options with algorithm; work_mem }

let perturb rng = function
  | Value.Int i -> Value.Int (i + Rng.in_range rng (-2) 2)
  | Value.Float f -> Value.Float (f *. (0.95 +. (0.1 *. Rng.float rng)))
  | (Value.String _ | Value.Bool _ | Value.Date _) as v -> v

(* ---- legs 1-2: algorithms, E6 ------------------------------------------ *)

(* Algorithms often agree on a plan: it runs once. *)
type plan = { algo : string; r : Optimizer.result }

let algorithms c ~oracle =
  let cat = Lazy.force c.cat.shared in
  let leg = "algorithms" in
  (match Block.validate cat c.q with Ok () -> () | Error m -> fail c ~leg "invalid query: %s" m);
  let step acc (algo, algorithm) () =
    let r = Optimizer.optimize ~options:(options ~algorithm c.work_mem) cat c.q in
    let same p = Physical.to_string p.r.Optimizer.plan = Physical.to_string r.Optimizer.plan in
    match List.find_opt same acc with
    | Some _ -> { algo; r }
    | None ->
      (match Plan_check.check cat r.Optimizer.plan with
       | Ok () -> ()
       | Error m -> fail c ~leg ~algo "invalid plan (%s):@.%a" m Physical.pp r.Optimizer.plan);
      let out = run cat ~work_mem:c.work_mem r.Optimizer.plan in
      if not (Relation.multiset_equal oracle out) then
        fail c ~leg ~algo "result differs from the oracle";
      { algo; r }
  in
  let plans =
    List.fold_left
      (fun acc a -> acc @ Option.to_list (guard c ~leg ~algo:(fst a) (step acc a)))
      []
      [ ("traditional", Optimizer.Traditional); ("greedy", Optimizer.Greedy_conservative);
        ("paper", Optimizer.Paper) ]
  in
  no_temps c ~leg cat;
  plans

let e6 c plans =
  let est p = p.r.Optimizer.est.Cost_model.cost in
  let cost algo = List.find_map (fun p -> if p.algo = algo then Some (est p) else None) plans in
  match (cost "traditional", cost "greedy", cost "paper") with
  | Some t, Some g, Some p ->
    if g > t +. 1e-6 then
      fail c ~leg:"E6" ~algo:"greedy" "estimated cost %.1f > traditional %.1f" g t;
    if p > g +. 1e-6 then fail c ~leg:"E6" ~algo:"paper" "estimated cost %.1f > greedy %.1f" p g
  | _ -> ()

(* ---- legs 3, 5 and 6, on a fresh catalog: plan cache, writes, views --- *)

let service_config work_mem = { Service.default_config with work_mem }
let source (p : Service.planned) = Service.source_label p.Service.source

(* [fresh] is the algorithms leg's paper plan, from an identical catalog. *)
let plan_cache c rng cat svc stmt ~fresh =
  let leg = "plan cache" in
  ignore
    (guard c ~leg ~algo:"paper" (fun () ->
         let first = Service.plan svc stmt in
         if first.Service.source <> Service.Miss then
           fail c ~leg "first plan is %s, not a miss" (source first);
         let served = Service.plan svc stmt in
         if served.Service.source <> Service.Hit then
           fail c ~leg "second plan is %s, not a hit" (source served);
         Option.iter
           (fun (fresh : Optimizer.result) ->
             if served.Service.est.Cost_model.cost <> fresh.Optimizer.est.Cost_model.cost
                || Physical.to_string served.Service.plan
                   <> Physical.to_string fresh.Optimizer.plan
             then
               fail c ~leg "cached plan differs from a fresh optimization:@.%a@.fresh:@.%a"
                 Physical.pp served.Service.plan Physical.pp fresh.Optimizer.plan)
           fresh;
         let ps = List.map (perturb rng) (Service.stmt_params stmt) in
         let p, got, _ = Service.execute ~params:ps svc stmt in
         if p.Service.source = Service.Miss || p.Service.source = Service.Uncached then
           fail c ~leg "perturbed call's plan is %s" (source p);
         let want = Block.reference_eval cat (Canon.substitute c.q ps) in
         if not (Relation.multiset_equal want got) then
           fail c ~leg "%s plan for perturbed parameters differs from the oracle" (source p);
         if (Service.stats svc).Service.stale_hits <> 0 then fail c ~leg "a stale plan was served"));
  no_temps c ~leg cat

(* A view's body as a flat grouped query with the view's output columns. *)
let flat_of_view (v : Block.view) =
  let select = function
    | Block.Out_key (col, name) -> Block.Sel_col (col, name)
    | Block.Out_agg a -> Block.Sel_agg a
  in
  { Block.q_views = []; q_rels = v.Block.v_rels; q_preds = v.Block.v_preds; q_grouped = true;
    q_keys = v.Block.v_keys; q_aggs = v.Block.v_aggs; q_having = [];
    q_select = List.map select v.Block.v_out; q_order = []; q_limit = None }

(* Append copies of 8 random rows of [table] under fresh primary keys;
   returns the stored rows. *)
let append_copies cat rng table =
  let t = Catalog.table_exn cat table in
  let rows = Array.of_list (Relation.tuples (Heap_file.to_relation t.Catalog.heap)) in
  let k = Schema.find_exn t.Catalog.tschema (List.hd t.Catalog.primary_key) in
  let top = Array.fold_left (fun m r -> match r.(k) with Value.Int i -> max m i | _ -> m) 0 rows in
  Catalog.insert cat ~table
    (List.init 8 (fun i ->
         let r = Array.copy rows.(Rng.int rng (Array.length rows)) in
         r.(k) <- Value.Int (top + 1 + i);
         r))

(* The views are materialized before the service plans, so that the append
   finds a plan cached at the current epoch. *)
let fresh_catalog_legs c rng ~fresh =
  let cat = c.cat.load () and reg = Matview.create () and options = options c.work_mem in
  let views =
    List.filter_map
      (fun (v : Block.view) ->
        let name = "oracle_" ^ v.Block.v_alias in
        if v.Block.v_having <> [] then None
        else
          try Some (Matview.create_view ~options cat reg ~name ~sql:name v, flat_of_view v)
          with Matview.Error _ -> None (* an empty extent *))
      c.q.Block.q_views
  in
  let fresh_view name =
    Option.fold ~none:false ~some:(Matview.is_fresh cat) (Matview.find reg name)
  in
  let check_views stage =
    List.iter
      (fun ((mv : Matview.view), flat) ->
        ignore
          (guard c ~leg:"views" (fun () ->
               let rws = Matview.rewrites ~options cat reg flat in
               List.iter
                 (fun (name, _) ->
                   if not (fresh_view name) then
                     fail c ~leg:"views" "%s: stale view %s answered" stage name)
                 rws;
               if fresh_view mv.Matview.mv_name && not (List.mem_assoc mv.Matview.mv_name rws)
               then
                 fail c ~leg:"views" "%s: view %s does not answer its own body" stage
                   mv.Matview.mv_name;
               let want = Block.reference_eval cat flat in
               List.iter
                 (fun (name, r) ->
                   let got = run cat ~work_mem:c.work_mem r.Optimizer.plan in
                   if not (Relation.multiset_equal want got) then
                     fail c ~leg:"views" "%s: the rewrite over %s of view %s's body differs \
                                          from the oracle" stage name mv.Matview.mv_name)
                 rws)))
      views;
    no_temps c ~leg:"views" cat
  in
  check_views "before the append";
  let svc = Service.create ~config:(service_config c.work_mem) cat in
  let stmt = Service.prepare_query svc c.q in
  plan_cache c rng cat svc stmt ~fresh;
  let rels = c.q.Block.q_rels @ List.concat_map (fun v -> v.Block.v_rels) c.q.Block.q_views in
  let table = Rng.pick rng (List.sort_uniq compare (List.map (fun r -> r.Block.r_table) rels)) in
  let leg = "writes" in
  ignore
    (guard c ~leg (fun () ->
         Matview.on_insert cat reg ~table ~rows:(append_copies cat rng table);
         let p, got, _ = Service.execute svc stmt in
         if p.Service.source <> Service.Miss then
           fail c ~leg "after appending to %s the plan is %s, not a miss" table (source p);
         if (Service.stats svc).Service.stale_hits <> 0 then fail c ~leg "a stale plan was served";
         if not (Relation.multiset_equal (Block.reference_eval cat c.q) got) then
           fail c ~leg "result after appending to %s differs from the oracle" table));
  no_temps c ~leg cat;
  check_views (Printf.sprintf "after appending to %s" table)

(* ---- one case through its legs ----------------------------------------- *)

(* The legs after the algorithms leg, which every case runs first: the
   others compare against its plans.  [Plan_cache] runs that leg alone on
   the shared catalog; [Fresh_catalog] runs it with the writes and views
   legs on a catalog of the case's own. *)
type leg = E6 | Plan_cache | Fresh_catalog

let every_leg = [ E6; Fresh_catalog ]

let run_case ?(legs = every_leg) c =
  let rng = Rng.create ~seed:(c.seed + 1) in
  let plans = algorithms c ~oracle:(Block.reference_eval (Lazy.force c.cat.shared) c.q) in
  let paper = List.find_map (fun p -> if p.algo = "paper" then Some p.r else None) plans in
  if List.mem E6 legs then e6 c plans;
  if List.mem Plan_cache legs then begin
    let cat = Lazy.force c.cat.shared in
    let svc = Service.create ~config:(service_config c.work_mem) cat in
    plan_cache c rng cat svc (Service.prepare_query svc c.q) ~fresh:paper
  end;
  if List.mem Fresh_catalog legs then fresh_catalog_legs c rng ~fresh:paper

let seed_and_work_mem =
  QCheck.make
    ~print:(fun (seed, wm) -> Printf.sprintf "seed %d, work_mem %d" seed wm)
    QCheck.Gen.(pair (int_bound 1_000_000) (oneofl [ 4; 32 ]))

let property ?(speed_level = `Slow) ~name ~count f =
  QCheck_alcotest.to_alcotest ~speed_level
    (QCheck.Test.make ~name ~count seed_and_work_mem (fun (seed, work_mem) ->
         match f ~seed ~work_mem with () -> true | exception Failed m -> QCheck.Test.fail_report m))

let label_of = function `Simple -> "simple" | `Rich -> "rich"

(* [count] drawn seeds, each generating one query on every catalog of
   [cats]. *)
let generated ?speed_level ?legs ~name ~count cats complexity =
  property ?speed_level ~name ~count (fun ~seed ~work_mem ->
      List.iter
        (fun cat ->
          let q = Query_gen.generate ~complexity (Rng.create ~seed) (Lazy.force cat.shared) in
          run_case ?legs { cat; label = label_of complexity; seed; work_mem; q })
        cats)

let every_leg_on cat complexity ~count =
  let family = List.hd (String.split_on_char '(' cat.cname) in
  generated
    ~name:(Printf.sprintf "%s %s queries, every leg" family (label_of complexity))
    ~count [ cat ] complexity

(* Named queries through every leg, at the work_mem and seed the run draws. *)
let named ~name cases =
  property ~speed_level:`Quick ~name ~count:1 (fun ~seed ~work_mem ->
      List.iter (fun (cat, label, q) -> run_case { cat; label; seed; work_mem; q }) cases)

(* ---- leg 4: the pool ---------------------------------------------------- *)

(* [calls] perturbed calls to [templates] generated templates, submitted
   at once to a cold service: every call equals its oracle, and
   optimization is paid at most once per template. *)
let pool_leg ~seed ~work_mem ~workers ~templates ~calls cat =
  let shared = Lazy.force cat.shared and rng = Rng.create ~seed in
  let ts = Array.init templates (fun _ -> Query_gen.generate ~complexity:`Simple rng shared) in
  let calls =
    Array.init calls (fun _ ->
        let q = ts.(Rng.int rng templates) in
        (q, List.map (perturb rng) (Canon.params q)))
  in
  let wants = Array.map (fun (q, ps) -> Block.reference_eval shared (Canon.substitute q ps)) calls
  in
  let templates = Array.to_list (Array.map (fun (q, _) -> Canon.serialize q) calls) in
  let templates = List.length (List.sort_uniq compare templates) in
  let case i = { cat; label = Printf.sprintf "pool call %d" i; seed; work_mem; q = fst calls.(i) }
  in
  let leg = Printf.sprintf "pool(%d)" workers in
  let svc = Service.create ~config:(service_config work_mem) shared in
  Service.Pool.with_pool ~workers svc (fun pool ->
      Array.map
        (fun (q, ps) -> Service.Pool.submit ~params:ps pool (Service.prepare_query svc q))
        calls
      |> Array.iteri (fun i f ->
             match guard (case i) ~leg (fun () -> Service.Pool.await f) with
             | Some (_, got, _) when not (Relation.multiset_equal wants.(i) got) ->
               fail (case i) ~leg "result differs from the oracle"
             | _ -> ()));
  let s = Service.stats svc in
  let served =
    s.Service.hits + s.Service.rebinds + s.Service.misses + s.Service.recost_fallbacks
    + s.Service.rebind_conflicts
  in
  if s.Service.calls <> Array.length calls || served <> s.Service.calls then
    fail (case 0) ~leg "cache counters do not add up to %d calls" (Array.length calls);
  if s.Service.stale_hits <> 0 then fail (case 0) ~leg "%d stale hits" s.Service.stale_hits;
  if s.Service.misses > templates then
    fail (case 0) ~leg "%d misses for %d distinct templates" s.Service.misses templates;
  no_temps (case 0) ~leg shared

(* ---- the suites' cases ------------------------------------------------- *)

(* A generated rich query that breaks the ordering paper <= greedy <=
   traditional when a view exports only its cheapest final, or when
   pull-up's W = V - V' candidate is not the view itself.  Through the E6
   leg, at the work_mem the run draws. *)
let ordering_case (cat, seed) =
  property ~speed_level:`Quick ~count:1
    ~name:(Printf.sprintf "E6 ordering: %s rich seed %d" cat.cname seed)
    (fun ~seed:_ ~work_mem ->
      let q = Query_gen.generate ~complexity:`Rich (Rng.create ~seed) (Lazy.force cat.shared) in
      run_case ~legs:[ E6 ] { cat; label = "rich"; seed; work_mem; q })

(* Every leg on generated queries, per catalog and complexity, and the
   ordering regressions. *)
let tests =
  [
    every_leg_on tpcd_small `Simple ~count:30;
    every_leg_on tpcd_small `Rich ~count:20;
    every_leg_on star_small `Simple ~count:12;
    every_leg_on star_small `Rich ~count:12;
    every_leg_on chain `Simple ~count:12;
    every_leg_on chain `Rich ~count:12;
  ]
  @ List.map ordering_case
      [ (tpcd_small, 143); (tpcd_small, 899); (tpcd_small, 1464); (tpcd_tiny, 782);
        (tpcd_tiny, 1318); (star_small, 1440) ]

(* The other suites' differential cases: each is the inputs an earlier
   per-suite loop ran, through the legs it checked (named queries through
   every leg). *)

let tpcd_120 =
  catalog "tpcd(120 customers)" (fun () ->
      Tpcd.load ~params:{ Tpcd.default_params with customers = 120 } ())

let tpcd_named () =
  [ ("big spenders", Tpcd.q_big_spenders ());
    ("small quantity parts", Tpcd.q_small_quantity_parts ());
    ("two views", Tpcd.q_two_views ()) ]

let named_tpcd ~name label =
  named ~name [ (tpcd_tiny, label, List.assoc label (tpcd_named ())) ]

let workload =
  [
    named_tpcd ~name:"big spenders" "big spenders";
    named_tpcd ~name:"small quantity parts (Q17 shape)" "small quantity parts";
    named_tpcd ~name:"two views (Fig 5 shape)" "two views";
    generated ~name:"25 random queries, 3 algorithms" ~count:25 ~legs:[] [ tpcd_tiny ] `Rich;
    generated ~name:"cost monotone: paper <= greedy <= traditional" ~count:30 ~legs:[ E6 ]
      [ tpcd_tiny ] `Rich;
    generated ~name:"rich fuzz across schemas (36 queries x 3 algos)" ~count:12 ~legs:[]
      [ tpcd_tiny; star 20 ~products:30 ~stores:6 ~rows_per_day:30;
        catalog "chain(300x4)" (fun () -> Chain.load ~rows:300 ~n:4 ()) ]
      `Rich;
  ]

let diff_catalogs = [ tpcd_small; star_small; chain ]

let executor_equals_reference =
  generated ~name:"executor = Logical.eval (random plans)" ~count:12 ~legs:[] diff_catalogs `Rich

let cached_plan_identity =
  generated ~name:"cache-served plan = freshly optimized plan" ~count:20 ~legs:[ Plan_cache ]
    [ tpcd_tiny ] `Rich

let rebound_plans =
  generated ~speed_level:`Quick ~name:"re-bound plans compute the same rows" ~count:6
    ~legs:[ Plan_cache ] [ tpcd_tiny ] `Rich

(* The named queries at 120 customers through every leg, and generated ones
   through the algorithms leg (whose [Plan_check] is the point). *)
let all_optimizer_plans_valid =
  property ~name:"all optimizer plans pass validation" ~count:1 (fun ~seed ~work_mem ->
      let cat = tpcd_120 in
      List.iter (fun (label, q) -> run_case { cat; label; seed; work_mem; q }) (tpcd_named ());
      let rng = Rng.create ~seed in
      for i = 1 to 10 do
        let q = Query_gen.generate rng (Lazy.force cat.shared) in
        run_case ~legs:[] { cat; label = Printf.sprintf "rich query %d of 10" i; seed; work_mem; q }
      done)

let star_tiny = star 30 ~products:50 ~stores:8 ~rows_per_day:40

let category_revenue =
  named ~name:"category revenue, all algorithms"
    [ (star_tiny, "category revenue", Star.q_category_revenue ()) ]

let above_average_products =
  named ~name:"above-average products, all algorithms"
    [ (star_tiny, "above-average products", Star.q_above_average_products ()) ]

(* A session per generated-query catalog, and one cold start on the small
   TPC-D. *)
let pool_differential ~workers =
  property ~speed_level:`Quick ~name:(Printf.sprintf "pool(%d) differential vs serial" workers)
    ~count:1 (fun ~seed ~work_mem ->
      List.iter (pool_leg ~seed ~work_mem ~workers ~templates:5 ~calls:40) diff_catalogs)

let pool_pays_once =
  property ~speed_level:`Quick ~name:"cold cache pays optimization once" ~count:1
    (fun ~seed ~work_mem -> pool_leg ~seed ~work_mem ~workers:4 ~templates:4 ~calls:32 tpcd_tiny)
