(* Metrics registry: named counters, gauges and fixed-bucket histograms with
   JSON and Prometheus text exposition.  Instruments are lock-free on the hot
   path — counters and histogram buckets are sharded arrays of atomics indexed
   by the calling domain, so concurrent pool workers do not bounce one cache
   line; the registry mutex is taken only to (un)register and to export. *)

let nshards = 8

let shard () = (Domain.self () :> int) land (nshards - 1)

module Counter = struct
  type t = int Atomic.t array

  let create () = Array.init nshards (fun _ -> Atomic.make 0)
  let add t n = ignore (Atomic.fetch_and_add t.(shard ()) n)
  let incr t = add t 1
  let get t = Array.fold_left (fun acc a -> acc + Atomic.get a) 0 t
end

module Histogram = struct
  type t = {
    bounds : float array;  (* ascending upper bounds; a +inf bucket is implicit *)
    counts : int Atomic.t array;  (* per-bucket observation counts *)
    sum : float Atomic.t;
    count : int Atomic.t;
  }

  let create bounds =
    let n = Array.length bounds in
    if n = 0 then invalid_arg "Metrics.Histogram.create: no buckets";
    for i = 1 to n - 1 do
      if bounds.(i) <= bounds.(i - 1) then
        invalid_arg "Metrics.Histogram.create: buckets not ascending"
    done;
    {
      bounds = Array.copy bounds;
      counts = Array.init (n + 1) (fun _ -> Atomic.make 0);
      sum = Atomic.make 0.;
      count = Atomic.make 0;
    }

  let fadd a x =
    let rec go () =
      let v = Atomic.get a in
      if not (Atomic.compare_and_set a v (v +. x)) then go ()
    in
    go ()

  let observe t x =
    let n = Array.length t.bounds in
    let rec slot i = if i >= n || x <= t.bounds.(i) then i else slot (i + 1) in
    Atomic.incr t.counts.(slot 0);
    Atomic.incr t.count;
    fadd t.sum x

  let count t = Atomic.get t.count
  let sum t = Atomic.get t.sum

  let buckets t =
    Array.to_list
      (Array.mapi
         (fun i c ->
           ((if i < Array.length t.bounds then t.bounds.(i) else infinity),
            Atomic.get c))
         t.counts)

  (* Default bucket ladders for the two quantities the engine cares about. *)
  let latency_ms_buckets =
    [| 0.05; 0.1; 0.25; 0.5; 1.; 2.5; 5.; 10.; 25.; 50.; 100.; 250.; 500.;
       1000.; 5000. |]

  let io_pages_buckets =
    [| 1.; 4.; 16.; 64.; 256.; 1024.; 4096.; 16384.; 65536. |]
end

type instrument =
  | ICounter of Counter.t
  | IFn_counter of (unit -> float)  (* monotonic value sampled at export *)
  | IGauge of (unit -> float)
  | IHistogram of Histogram.t

type metric = {
  name : string;
  help : string;
  labels : (string * string) list;
  instrument : instrument;
}

type t = { lock : Mutex.t; mutable metrics : metric list }

let create () = { lock = Mutex.create (); metrics = [] }

let valid_name name =
  name <> ""
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9') || c = '_' || c = ':')
       name

(* Same (name, labels) replaces: re-creating a service component (e.g. a new
   pool over one service) re-points the metric instead of duplicating it. *)
let register t ?(help = "") ?(labels = []) name instrument =
  if not (valid_name name) then
    invalid_arg (Printf.sprintf "Metrics.register: bad metric name %S" name);
  let m = { name; help; labels; instrument } in
  Mutex.protect t.lock (fun () ->
      t.metrics <-
        m
        :: List.filter
             (fun m' -> not (m'.name = name && m'.labels = labels))
             t.metrics)

let counter t ?help ?labels name =
  let c = Counter.create () in
  register t ?help ?labels name (ICounter c);
  c

let fn_counter t ?help ?labels name f =
  register t ?help ?labels name (IFn_counter f)

let gauge t ?help ?labels name f = register t ?help ?labels name (IGauge f)

let histogram t ?help ?labels ~buckets name =
  let h = Histogram.create buckets in
  register t ?help ?labels name (IHistogram h);
  h

let kind_label = function
  | ICounter _ | IFn_counter _ -> "counter"
  | IGauge _ -> "gauge"
  | IHistogram _ -> "histogram"

(* Stable export order: by name, then by labels. *)
let sorted_metrics t =
  let ms = Mutex.protect t.lock (fun () -> t.metrics) in
  List.sort
    (fun a b ->
      match compare a.name b.name with 0 -> compare a.labels b.labels | c -> c)
    ms

(* ---- JSON exposition ---- *)

let escape_json s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 32 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Round-trippable rendering: %g keeps only 6 significant digits, which
   silently truncates large cumulative counters and histogram sums in the
   exports.  Prefer the shortest of %.0f / %.12g that parses back to the
   exact same float, falling back to %.17g (always exact for finite
   doubles). *)
let json_float x =
  if Float.is_nan x then "0"
  else if Float.is_integer x && Float.abs x < 1e15 then
    Printf.sprintf "%.0f" x
  else
    let s = Printf.sprintf "%.12g" x in
    if float_of_string s = x then s else Printf.sprintf "%.17g" x

let add_labels_json buf labels =
  Buffer.add_string buf "{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf
        (Printf.sprintf "\"%s\": \"%s\"" (escape_json k) (escape_json v)))
    labels;
  Buffer.add_string buf "}"

let to_json t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"metrics\": [";
  List.iteri
    (fun i m ->
      Buffer.add_string buf (if i = 0 then "\n    " else ",\n    ");
      Buffer.add_string buf
        (Printf.sprintf "{ \"name\": \"%s\", \"type\": \"%s\", \"labels\": "
           (escape_json m.name) (kind_label m.instrument));
      add_labels_json buf m.labels;
      (match m.instrument with
       | ICounter c ->
         Buffer.add_string buf
           (Printf.sprintf ", \"value\": %d" (Counter.get c))
       | IFn_counter f | IGauge f ->
         Buffer.add_string buf
           (Printf.sprintf ", \"value\": %s" (json_float (f ())))
       | IHistogram h ->
         Buffer.add_string buf ", \"buckets\": [";
         List.iteri
           (fun j (le, n) ->
             if j > 0 then Buffer.add_string buf ", ";
             Buffer.add_string buf
               (Printf.sprintf "{ \"le\": %s, \"count\": %d }"
                  (if le = infinity then "\"+Inf\"" else json_float le)
                  n))
           (Histogram.buckets h);
         Buffer.add_string buf
           (Printf.sprintf "], \"sum\": %s, \"count\": %d"
              (json_float (Histogram.sum h))
              (Histogram.count h)));
      Buffer.add_string buf " }")
    (sorted_metrics t);
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf

(* ---- Prometheus text exposition ---- *)

let escape_label_value s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let prom_labels = function
  | [] -> ""
  | labels ->
    "{"
    ^ String.concat ","
        (List.map
           (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label_value v))
           labels)
    ^ "}"

let prom_float x =
  if x = infinity then "+Inf"
  else if x = neg_infinity then "-Inf"
  else json_float x

let to_prometheus t =
  let buf = Buffer.create 1024 in
  let typed = Hashtbl.create 16 in
  List.iter
    (fun m ->
      if not (Hashtbl.mem typed m.name) then begin
        Hashtbl.add typed m.name ();
        if m.help <> "" then
          Buffer.add_string buf
            (Printf.sprintf "# HELP %s %s\n" m.name m.help);
        Buffer.add_string buf
          (Printf.sprintf "# TYPE %s %s\n" m.name (kind_label m.instrument))
      end;
      (match m.instrument with
       | ICounter c ->
         Buffer.add_string buf
           (Printf.sprintf "%s%s %d\n" m.name (prom_labels m.labels)
              (Counter.get c))
       | IFn_counter f | IGauge f ->
         Buffer.add_string buf
           (Printf.sprintf "%s%s %s\n" m.name (prom_labels m.labels)
              (prom_float (f ())))
       | IHistogram h ->
         (* Prometheus histogram buckets are cumulative. *)
         let cum = ref 0 in
         List.iter
           (fun (le, n) ->
             cum := !cum + n;
             Buffer.add_string buf
               (Printf.sprintf "%s_bucket%s %d\n" m.name
                  (prom_labels (m.labels @ [ ("le", prom_float le) ]))
                  !cum))
           (Histogram.buckets h);
         Buffer.add_string buf
           (Printf.sprintf "%s_sum%s %s\n" m.name (prom_labels m.labels)
              (json_float (Histogram.sum h)));
         Buffer.add_string buf
           (Printf.sprintf "%s_count%s %d\n" m.name (prom_labels m.labels)
              (Histogram.count h))))
    (sorted_metrics t);
  Buffer.contents buf
