(* Statement tracing: spans grouped into per-statement traces, emitted as
   JSONL.  A span records a monotonic start offset and duration in ms plus a
   small bag of attributes; operator spans are synthesized after the fact from
   the executor's profile tree via [emit], so tracing costs nothing per row. *)

type attr = S of string | I of int | F of float | B of bool

type span = {
  tracer : tracer;
  trace_id : int;
  span_id : int;
  parent : int option;  (* parent span id within the same trace *)
  name : string;
  t0 : float;  (* Unix.gettimeofday at start *)
  mutable attrs : (string * attr) list;
}

and tracer = {
  out : out_channel option;
  owns_out : bool;
  lock : Mutex.t;
  slow_ms : float option;
  next_trace : int Atomic.t;
  next_span : int Atomic.t;
  spans_emitted : int Atomic.t;
  slow_statements : int Atomic.t;
}

let create ?slow_ms ?out ?(owns_out = false) () =
  {
    out;
    owns_out;
    lock = Mutex.create ();
    slow_ms;
    next_trace = Atomic.make 1;
    next_span = Atomic.make 1;
    spans_emitted = Atomic.make 0;
    slow_statements = Atomic.make 0;
  }

let create_file ?slow_ms path =
  create ?slow_ms ~out:(open_out path) ~owns_out:true ()

let close t =
  match t.out with
  | Some oc ->
    Mutex.protect t.lock (fun () ->
        try
          flush oc;
          if t.owns_out then close_out oc
        with _ -> ())
  | None -> ()

let spans_emitted t = Atomic.get t.spans_emitted
let slow_statements t = Atomic.get t.slow_statements
let new_trace t = Atomic.fetch_and_add t.next_trace 1

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 32 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let attr_json = function
  | S s -> Printf.sprintf "\"%s\"" (escape s)
  | I n -> string_of_int n
  | F x ->
    if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
    else Printf.sprintf "%.6g" x
  | B b -> if b then "true" else "false"

let write_line t ~trace_id ~span_id ~parent ~name ~status ~t0 ~dur_ms attrs =
  Atomic.incr t.spans_emitted;
  match t.out with
  | None -> ()
  | Some oc ->
    let buf = Buffer.create 256 in
    Buffer.add_string buf
      (Printf.sprintf
         "{\"trace\":%d,\"span\":%d,\"parent\":%s,\"name\":\"%s\",\
          \"status\":\"%s\",\"ts\":%.6f,\"dur_ms\":%.3f"
         trace_id span_id
         (match parent with None -> "null" | Some p -> string_of_int p)
         (escape name) (escape status) t0 dur_ms);
    if attrs <> [] then begin
      Buffer.add_string buf ",\"attrs\":{";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf
            (Printf.sprintf "\"%s\":%s" (escape k) (attr_json v)))
        attrs;
      Buffer.add_char buf '}'
    end;
    Buffer.add_string buf "}\n";
    Mutex.protect t.lock (fun () ->
        try output_string oc (Buffer.contents buf) with _ -> ())

let start t ~trace_id ?parent name =
  {
    tracer = t;
    trace_id;
    span_id = Atomic.fetch_and_add t.next_span 1;
    parent;
    name;
    t0 = Unix.gettimeofday ();
    attrs = [];
  }

let set_attr s k v = s.attrs <- (k, v) :: s.attrs

let finish ?(status = "ok") s =
  let dur_ms = (Unix.gettimeofday () -. s.t0) *. 1000. in
  write_line s.tracer ~trace_id:s.trace_id ~span_id:s.span_id ~parent:s.parent
    ~name:s.name ~status ~t0:s.t0 ~dur_ms (List.rev s.attrs);
  dur_ms

(* Synthetic span with externally measured timing — operator spans rebuilt
   from the profile tree, and parse/canonicalize durations recorded at
   prepare time. Returns the span id so callers can parent children. *)
let emit t ~trace_id ?parent ?(status = "ok") ~t0 ~dur_ms name attrs =
  let span_id = Atomic.fetch_and_add t.next_span 1 in
  write_line t ~trace_id ~span_id ~parent ~name ~status ~t0 ~dur_ms attrs;
  span_id

let note_slow t ?fingerprint ?sid ~sql ~dur_ms ~trace_id () =
  match t.slow_ms with
  | Some thresh when dur_ms >= thresh ->
    Atomic.incr t.slow_statements;
    let sql =
      if String.length sql > 200 then String.sub sql 0 197 ^ "..." else sql
    in
    let fp =
      match fingerprint with None -> "" | Some f -> Printf.sprintf " fp=%s" f
    in
    let sid =
      match sid with None -> "" | Some s -> Printf.sprintf " sid=%d" s
    in
    Printf.eprintf "[slow %.1fms trace=%d%s%s] %s\n%!" dur_ms trace_id fp sid
      sql
  | _ -> ()
