(* The four served workloads: how `avq serve` is started for each, and the
   seeded SQL statement streams its connections send.  Streams are pure
   functions of (catalog, seed, connection): the same seed yields
   byte-identical SQL, and the server only ever sees the generated text.

   The run seed draws the order of statement classes and, except on
   adhoc_views, their constants.  Table contents come from a fixed data
   seed: with the data drawn per seed, the fact-table skew moved
   scan_star's throughput by more than 10% from seed to seed. *)

type db = Empdept | Tpcd | Star

type t = {
  name : string;
  why : string;
  db : db;
  scale : int;
  durable : bool;
      (** serve with --data-dir and --wal-fsync always, create [matview]
          before warm-up, and SIGKILL + restart the server at the end *)
  write_rate : float option;
      (** open-loop 2-row INSERTs per second on their own connection *)
  read_conns : int;  (** closed-loop read connections *)
  fact : string;  (** table INSERTs go to (the write probe on read-only workloads) *)
  matview : string option;  (** DDL run before warm-up *)
  trace_statements : int;  (** statements the traced in-process pass replays *)
  make_reads : Catalog.t -> conn:int -> Rng.t -> unit -> string;
}

(* ---- catalogs: the same scale arithmetic as `avq serve` ---- *)

let data_seed = 42

let db_flag = function Empdept -> "empdept" | Tpcd -> "tpcd" | Star -> "star"

let load db ~scale =
  let seed = data_seed in
  match db with
  | Empdept ->
    let p = Emp_dept.default_params in
    Emp_dept.load
      ~params:{ p with emps = p.emps * scale; depts = p.depts * scale; seed }
      ()
  | Tpcd ->
    let p = Tpcd.default_params in
    Tpcd.load ~params:{ p with customers = p.customers * scale; seed } ()
  | Star ->
    let p = Star.default_params in
    Star.load ~params:{ p with days = p.days * scale; seed } ()

let frange cat table col =
  let s = Catalog.column_stats (Catalog.table_exn cat table) col in
  (Value.to_float s.Stats.vmin, Value.to_float s.Stats.vmax)

let range cat table col =
  let lo, hi = frange cat table col in
  (int_of_float lo, int_of_float hi)

let draw rng cat table col =
  let lo, hi = range cat table col in
  Rng.in_range rng lo hi

(* One RNG per (seed, connection). *)
let stream_rng ~seed ~conn = Rng.create ~seed:((seed * 1_000_003) + (7919 * (conn + 2)))

let reads w cat ~seed ~conn = w.make_reads cat ~conn (stream_rng ~seed ~conn)

(* The k-th write: two rows for [w.fact] with fresh primary keys, other
   columns drawn within their observed ranges. *)
let insert_sql w cat ~seed k =
  let tbl = Catalog.table_exn cat w.fact in
  let rng = Rng.create ~seed:((seed * 1_000_003) + k) in
  let row i =
    List.map
      (fun (c : Schema.column) ->
        if List.mem c.Schema.cname tbl.Catalog.primary_key then
          string_of_int (1_000_000 + (2 * k) + i)
        else
          match c.Schema.cty with
          | Datatype.Int -> string_of_int (draw rng cat w.fact c.Schema.cname)
          | Datatype.Float ->
            let lo, hi = frange cat w.fact c.Schema.cname in
            Printf.sprintf "%.2f" (lo +. (Rng.float rng *. (hi -. lo)))
          | Datatype.Date | Datatype.String | Datatype.Bool ->
            invalid_arg ("Streams.insert_sql: unsupported column " ^ c.Schema.cname))
      (Schema.columns tbl.Catalog.tschema)
  in
  Printf.sprintf "INSERT INTO %s VALUES (%s), (%s)" w.fact
    (String.concat ", " (row 0))
    (String.concat ", " (row 1))

(* Deals [values] in a seeded order, each once per round: a stream's mix of
   statement classes (and of constants whose cost differs) is exact over
   every round, and only the order depends on the seed. *)
let deck rng values =
  let a = Array.of_list values in
  let n = Array.length a in
  let next = ref n in
  fun () ->
    if !next >= n then begin
      for j = n - 1 downto 1 do
        let k = Rng.int rng (j + 1) in
        let v = a.(j) in
        a.(j) <- a.(k);
        a.(k) <- v
      done;
      next := 0
    end;
    incr next;
    a.(!next - 1)

let values cat table col =
  let lo, hi = range cat table col in
  List.init (hi - lo + 1) (fun i -> lo + i)

(* ---- serve_point: PK and dimension lookups that the plan cache serves ---- *)

let point_reads cat ~conn:_ rng =
  let classes = deck rng [ 0; 1; 2 ] in
  fun () ->
    match classes () with
    | 0 ->
      Printf.sprintf
        "SELECT e.eno AS eno, e.dno AS dno, e.sal AS sal, e.age AS age FROM emp e \
         WHERE e.eno = %d"
        (draw rng cat "emp" "eno")
    | 1 ->
      Printf.sprintf
        "SELECT d.dno AS dno, d.budget AS budget, d.dname AS dname FROM dept d \
         WHERE d.dno = %d"
        (draw rng cat "dept" "dno")
    | _ ->
      Printf.sprintf
        "SELECT e.dno AS dno, COUNT(*) AS heads, AVG(e.sal) AS avg_sal FROM emp e \
         WHERE e.dno = %d GROUP BY e.dno"
        (draw rng cat "dept" "dno")

(* ---- scan_star: fact-table joins and groups larger than the pool ---- *)

(* One statement in six is the aggregate-view query: its 150 kB replies
   took ~70% of served time at one in three, leaving throughput to follow
   the host's speed. *)
let star_reads cat ~conn:_ rng =
  let classes = deck rng [ 0; 0; 0; 1; 1; 2 ] in
  let category = deck rng (values cat "product" "category") in
  let qty = deck rng (values cat "sales" "qty") in
  let region = deck rng (values cat "store" "region") in
  fun () ->
    match classes () with
    | 0 ->
      Printf.sprintf
        "SELECT d.month AS month, SUM(f.amount) AS revenue FROM sales f, dates d, \
         product p WHERE f.day = d.day AND f.prod = p.prod AND p.category = %d \
         GROUP BY d.month ORDER BY month"
        (category ())
    | 1 ->
      Printf.sprintf
        "SELECT f.store AS store, COUNT(*) AS n, SUM(f.amount) AS amount FROM \
         sales f WHERE f.qty <= %d GROUP BY f.store"
        (qty ())
    | _ ->
      Printf.sprintf
        "CREATE VIEW v (prod, avgqty) AS SELECT f2.prod, AVG(f2.qty) FROM sales \
         f2 GROUP BY f2.prod; SELECT f.sk AS sk, f.prod AS prod, f.qty AS qty \
         FROM sales f, store s, v WHERE f.store = s.store AND f.prod = v.prod AND \
         s.region = %d AND f.qty > v.avgqty"
        (region ())

(* ---- ingest_mix reads: covered by by_dept, uncovered, PK lookup ---- *)

let by_dept =
  "CREATE MATERIALIZED VIEW by_dept AS SELECT e.dno AS dno, COUNT(*) AS heads, \
   SUM(e.sal) AS total, AVG(e.age) AS avg_age FROM emp e GROUP BY e.dno"

(* The full covered GROUP BY, checked against the reference after the
   writes and again after the crash restart. *)
let by_dept_query =
  "SELECT e.dno AS dno, COUNT(*) AS heads, SUM(e.sal) AS total, AVG(e.age) AS \
   avg_age FROM emp e GROUP BY e.dno"

let ingest_reads cat ~conn:_ rng =
  let classes = deck rng [ 0; 1; 2 ] in
  let lo, hi = range cat "dept" "dno" in
  fun () ->
    match classes () with
    | 0 ->
      Printf.sprintf
        "SELECT e.dno AS dno, SUM(e.sal) AS total FROM emp e WHERE e.dno > %d \
         GROUP BY e.dno"
        (Rng.in_range rng lo (lo + ((hi - lo) * 4 / 5)))
    | 1 ->
      Printf.sprintf
        "SELECT e.dno AS dno, COUNT(*) AS heads FROM emp e WHERE e.age > %d GROUP \
         BY e.dno"
        (draw rng cat "emp" "age")
    | _ ->
      Printf.sprintf "SELECT e.eno AS eno, e.sal AS sal FROM emp e WHERE e.eno = %d"
        (draw rng cat "emp" "eno")

(* ---- adhoc_views: paper-shaped queries in the style of Query_gen ----

   A shape fixes every structural choice of a statement (foreign-key edge,
   views, aggregates, which columns are filtered with which operator); the
   constants are drawn when it is rendered.  Statements alternate between a
   hot set of 32 shapes and a per-connection sequence of fresh shapes from
   a space far larger than the 128-entry plan cache. *)

type filter = { fcol : string; fop : string }

type vshape = {
  second : Catalog.foreign_key option;
      (** join the FK source with the target of this second FK *)
  extra_key : bool;  (** also group by the second FK's column *)
  aggs : (string * string option) list;  (** function, column (None: COUNT star ) *)
  vfilter : filter option;
  having : string option;  (** comparison on the first aggregate *)
}

type shape = {
  fk : Catalog.foreign_key;
  views : vshape list;
  agg_preds : string option list;  (** per view, comparison on its first aggregate *)
  outer_filter : filter option;
  grouped : (string * string) option;  (** outer GROUP BY key, SUM column *)
}

let int_columns cat table =
  List.filter_map
    (fun (c : Schema.column) ->
      match c.Schema.cty with
      | Datatype.Int ->
        let lo, hi = range cat table c.Schema.cname in
        if hi > lo then Some c.Schema.cname else None
      | _ -> None)
    (Schema.columns (Catalog.table_exn cat table).Catalog.tschema)

let random_filter cat rng table =
  match int_columns cat table with
  | [] -> None
  | cols ->
    Some { fcol = Rng.pick rng cols; fop = Rng.pick rng [ "<"; "<="; ">"; ">=" ] }

let random_vshape cat rng (fk : Catalog.foreign_key) =
  let others =
    List.filter
      (fun (f : Catalog.foreign_key) ->
        String.equal f.Catalog.fk_table fk.Catalog.fk_table
        && not (String.equal f.Catalog.fk_column fk.Catalog.fk_column))
      (Catalog.foreign_keys cat)
  in
  let second =
    if others <> [] && Rng.bool rng then Some (Rng.pick rng others) else None
  in
  let extra_key = second <> None && Rng.bool rng in
  let cols = int_columns cat fk.Catalog.fk_table in
  let aggs =
    List.init
      (1 + Rng.int rng 2)
      (fun _ ->
        match Rng.pick rng [ "SUM"; "AVG"; "MIN"; "MAX"; "COUNT" ] with
        | "COUNT" -> ("COUNT", None)
        | f -> (f, Some (Rng.pick rng cols)))
  in
  let vfilter =
    if Rng.bool rng then random_filter cat rng fk.Catalog.fk_table else None
  in
  let having = if Rng.int rng 3 = 0 then Some (Rng.pick rng [ ">"; "<" ]) else None in
  { second; extra_key; aggs; vfilter; having }

let random_shape cat rng =
  let fk = Rng.pick rng (Catalog.foreign_keys cat) in
  let views = List.init (1 + Rng.int rng 2) (fun _ -> random_vshape cat rng fk) in
  let agg_preds =
    List.map
      (fun _ -> if Rng.bool rng then Some (Rng.pick rng [ ">"; "<" ]) else None)
      views
  in
  let outer_filter =
    if Rng.int rng 4 < 3 then random_filter cat rng fk.Catalog.pk_table else None
  in
  let grouped =
    if Rng.int rng 3 = 0 then
      let cols = int_columns cat fk.Catalog.pk_table in
      Some (Rng.pick rng cols, Rng.pick rng cols)
    else None
  in
  { fk; views; agg_preds; outer_filter; grouped }

(* Selective-end skew, as in Query_gen: decision-support filters are
   usually selective. *)
let filter_sql cat rng table alias f =
  let lo, hi = range cat table f.fcol in
  let q = Rng.float rng ** 2.5 in
  let quantile = if f.fop = "<" || f.fop = "<=" then q else 1. -. q in
  Printf.sprintf "%s.%s %s %d" alias f.fcol f.fop
    (lo + int_of_float (quantile *. float_of_int (hi - lo)))

let agg_sql (f, col) =
  match col with None -> "COUNT(*)" | Some c -> Printf.sprintf "%s(t.%s)" f c

let agg_name idx i = Printf.sprintf "a%d" ((idx * 10) + i)

let view_sql cat rng (fk : Catalog.foreign_key) idx v =
  let keys =
    ("t." ^ fk.Catalog.fk_column)
    :: (match v.second with
        | Some f2 when v.extra_key -> [ "t." ^ f2.Catalog.fk_column ]
        | _ -> [])
  in
  let cols =
    List.mapi (fun i _ -> Printf.sprintf "k%d" i) keys
    @ List.mapi (fun i _ -> agg_name idx i) v.aggs
  in
  let from, join =
    match v.second with
    | None -> (fk.Catalog.fk_table ^ " t", [])
    | Some f2 ->
      ( Printf.sprintf "%s t, %s d" fk.Catalog.fk_table f2.Catalog.pk_table,
        [ Printf.sprintf "t.%s = d.%s" f2.Catalog.fk_column f2.Catalog.pk_column ] )
  in
  let where =
    join
    @ Option.to_list (Option.map (filter_sql cat rng fk.Catalog.fk_table "t") v.vfilter)
  in
  let having =
    match v.having with
    | None -> ""
    | Some op ->
      Printf.sprintf " HAVING %s %s %d" (agg_sql (List.hd v.aggs)) op
        (Rng.in_range rng 0 2000)
  in
  Printf.sprintf "CREATE VIEW v%d (%s) AS SELECT %s FROM %s%s GROUP BY %s%s" idx
    (String.concat ", " cols)
    (String.concat ", " (keys @ List.map agg_sql v.aggs))
    from
    (if where = [] then "" else " WHERE " ^ String.concat " AND " where)
    (String.concat ", " keys) having

let shape_sql cat rng s =
  let fk = s.fk in
  let pk = "r0." ^ fk.Catalog.pk_column in
  let views = List.mapi (view_sql cat rng fk) s.views in
  let joins = List.mapi (fun i _ -> Printf.sprintf "%s = v%d.k0" pk i) s.views in
  let agg_preds =
    List.concat
      (List.mapi
         (fun i op ->
           match op with
           | None -> []
           | Some op ->
             [ Printf.sprintf "v%d.%s %s %d" i (agg_name i 0) op
                 (Rng.in_range rng 0 5000) ])
         s.agg_preds)
  in
  let outer =
    Option.to_list
      (Option.map (filter_sql cat rng fk.Catalog.pk_table "r0") s.outer_filter)
  in
  let select, group =
    match s.grouped with
    | Some (key, col) ->
      (Printf.sprintf "r0.%s AS k, SUM(r0.%s) AS t0" key col, " GROUP BY r0." ^ key)
    | None -> (pk ^ " AS c0", "")
  in
  Printf.sprintf "%s; SELECT %s FROM %s r0, %s WHERE %s%s"
    (String.concat "; " views) select fk.Catalog.pk_table
    (String.concat ", " (List.mapi (fun i _ -> Printf.sprintf "v%d" i) s.views))
    (String.concat " AND " (joins @ agg_preds @ outer))
    group

let hot_set_size = 32
let hot_seed = 0x5eed

(* Constants are fixed too: the j-th statement of hot shape s, and the j-th
   fresh statement, are the same for every seed; the run seed only decides
   how hot shapes interleave.  Drawing them per seed moved in-process cost
   by +-25% from seed to seed, since one unselective filter can multiply a
   statement's cost. *)
let adhoc_reads cat ~conn rng =
  let shapes = Rng.create ~seed:hot_seed in
  let hot =
    Array.init hot_set_size (fun s ->
        (random_shape cat shapes, Rng.create ~seed:(hot_seed + (1000 * (conn + 1)) + s)))
  in
  let fresh = Rng.create ~seed:(hot_seed + 1 + conn) in
  let order = deck rng (List.init hot_set_size Fun.id) in
  let i = ref 0 in
  fun () ->
    let hot_turn = !i mod 2 = 0 in
    incr i;
    if hot_turn then
      let shape, constants = hot.(order ()) in
      shape_sql cat constants shape
    else shape_sql cat fresh (random_shape cat fresh)

(* ---- the workloads ---- *)

let all =
  [
    {
      name = "serve_point";
      why =
        "PK and dept lookups whose plans are all cache hits; engine work is \
         ~0.03 ms, so the serve path dominates and optimizer and executor are \
         bypassed";
      db = Empdept;
      scale = 1;
      durable = false;
      write_rate = None;
      read_conns = 2;
      fact = "emp";
      matview = None;
      trace_statements = 2000;
      make_reads = point_reads;
    };
    {
      name = "adhoc_views";
      why =
        "the paper's workload: ad-hoc aggregate-view joins, half from 32 hot \
         templates and half fresh, so time splits between optimizer and \
         join+group execution";
      db = Tpcd;
      scale = 1;
      durable = false;
      write_rate = None;
      read_conns = 1;
      fact = "lineitem";
      matview = None;
      trace_statements = 400;
      make_reads = adhoc_reads;
    };
    {
      name = "scan_star";
      why =
        "star joins and fact GROUP BYs over a 636-page fact table that exceeds \
         the 256-frame pool; cached plans, so executor, storage and reply \
         rendering dominate";
      db = Star;
      scale = 4;
      durable = false;
      write_rate = None;
      read_conns = 1;
      fact = "sales";
      matview = None;
      trace_statements = 200;
      make_reads = star_reads;
    };
    {
      name = "ingest_mix";
      why =
        "open-loop durable INSERTs at 40/s beside closed-loop reads: every \
         insert re-plans reads, maintains a matview and fsyncs the WAL; ends \
         with SIGKILL and recovery";
      db = Empdept;
      scale = 1;
      durable = true;
      write_rate = Some 40.;
      read_conns = 1;
      fact = "emp";
      matview = Some by_dept;
      trace_statements = 300;
      make_reads = ingest_reads;
    };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) all

(* The statement sequence the traced pass replays: the read connections'
   streams interleaved, with the k-th INSERT after every second read on a
   workload that writes. *)
type stmt = Read of string | Write of string

let replay_stream w cat ~seed =
  let gens = Array.init w.read_conns (fun conn -> reads w cat ~seed ~conn) in
  let writes = ref 0 in
  List.init w.trace_statements (fun i ->
      if w.write_rate <> None && i mod 3 = 2 then begin
        let k = !writes in
        incr writes;
        Write (insert_sql w cat ~seed k)
      end
      else Read (gens.(i mod w.read_conns) ()))
