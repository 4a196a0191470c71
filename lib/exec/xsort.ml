let by_columns schema cols =
  let idx =
    Array.of_list
      (List.map
         (fun (c : Schema.column) ->
           match Schema.index_of_column schema c with
           | Some i -> i
           | None ->
             (match Schema.find schema ~qual:c.Schema.cqual c.Schema.cname with
              | Some i -> i
              | None ->
                raise
                  (Expr.Unresolved_column
                     (Format.asprintf "sort key %s not in %a"
                        (Schema.column_to_string c) Schema.pp schema))))
         cols)
  in
  fun a b -> Tuple.compare_at idx a b

let by_columns_dir schema cols ~desc =
  if desc = [] || not (List.exists Fun.id desc) then by_columns schema cols
  else begin
    let resolve (c : Schema.column) =
      match Schema.index_of_column schema c with
      | Some i -> i
      | None ->
        (match Schema.find schema ~qual:c.Schema.cqual c.Schema.cname with
         | Some i -> i
         | None ->
           raise
             (Expr.Unresolved_column
                (Format.asprintf "sort key %s not in %a"
                   (Schema.column_to_string c) Schema.pp schema)))
    in
    let keys =
      Array.of_list (List.map2 (fun c d -> (resolve c, d)) cols desc)
    in
    fun a b ->
      let rec loop i =
        if i >= Array.length keys then 0
        else
          let idx, d = keys.(i) in
          let c = Value.compare a.(idx) b.(idx) in
          if c <> 0 then if d then -c else c else loop (i + 1)
      in
      loop 0
  end

(* k-way merge of sorted runs via a binary min-heap over the run heads:
   O(log k) per tuple instead of the O(k) linear scan, which made
   high-fan-in merges quadratic-ish.  Ties break on run index, keeping the
   merge deterministic.  Every run's head is pulled up front, and a run's
   next tuple as soon as its head is taken. *)
let merge compare runs =
  let srcs = Array.of_list runs in
  let k = Array.length srcs in
  let heap_tup = Array.make (max k 1) [||] in
  let heap_src = Array.make (max k 1) 0 in
  let size = ref 0 in
  let less i j =
    let c = compare heap_tup.(i) heap_tup.(j) in
    if c <> 0 then c < 0 else heap_src.(i) < heap_src.(j)
  in
  let swap i j =
    let t = heap_tup.(i) and s = heap_src.(i) in
    heap_tup.(i) <- heap_tup.(j);
    heap_src.(i) <- heap_src.(j);
    heap_tup.(j) <- t;
    heap_src.(j) <- s
  in
  let rec sift_up i =
    if i > 0 then begin
      let p = (i - 1) / 2 in
      if less i p then begin
        swap i p;
        sift_up p
      end
    end
  in
  let rec sift_down i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let m = ref i in
    if l < !size && less l !m then m := l;
    if r < !size && less r !m then m := r;
    if !m <> i then begin
      swap i !m;
      sift_down !m
    end
  in
  let pull i =
    match srcs.(i) () with
    | Seq.Nil -> None
    | Seq.Cons (t, rest) ->
      srcs.(i) <- rest;
      Some t
  in
  for i = 0 to k - 1 do
    match pull i with
    | Some t ->
      heap_tup.(!size) <- t;
      heap_src.(!size) <- i;
      incr size;
      sift_up (!size - 1)
    | None -> ()
  done;
  Seq.of_dispenser (fun () ->
      if !size = 0 then None
      else begin
        let tup = heap_tup.(0) and src = heap_src.(0) in
        (match pull src with
         | Some t ->
           heap_tup.(0) <- t;
           sift_down 0
         | None ->
           decr size;
           heap_tup.(0) <- heap_tup.(!size);
           heap_src.(0) <- heap_src.(!size);
           heap_tup.(!size) <- [||];
           if !size > 0 then sift_down 0);
        Some tup
      end)

(* External sort: drain the input into sorted runs of [work_mem] pages,
   spilled to temp heaps once the input outgrows one run; merge with fan-in
   [work_mem - 1] until one pass remains, and serve the final merge as
   batches.  Closing the result drops the final runs. *)
let sort_batches ctx ~compare (input : Biter.t) =
  let schema = input.Biter.schema in
  let work_mem = Exec_ctx.work_mem ctx in
  let page_cap = Page.capacity ~row_bytes:(Schema.byte_width schema) in
  let run_rows = max 1 (work_mem * page_cap) in
  let runs = ref [] in
  let buffer = ref [] in
  let buffered = ref 0 in
  let flush_run () =
    if !buffered > 0 then begin
      let sorted = List.sort compare !buffer in
      let heap = Exec_ctx.temp ctx schema in
      Heap_file.append_all heap sorted;
      runs := heap :: !runs;
      buffer := [];
      buffered := 0
    end
  in
  Biter.iter_rows
    (fun tup ->
      buffer := tup :: !buffer;
      incr buffered;
      if !buffered >= run_rows then flush_run ())
    input;
  if !runs = [] then
    (* Fits in memory: no spill. *)
    Biter.of_seq schema (List.to_seq (List.sort compare !buffer))
  else begin
    flush_run ();
    let fanin = max 2 (work_mem - 1) in
    let rec merge_passes runs =
      if List.length runs <= fanin then runs
      else begin
        let rec take n = function
          | [] -> ([], [])
          | x :: rest when n > 0 ->
            let batch, remaining = take (n - 1) rest in
            (x :: batch, remaining)
          | l -> ([], l)
        in
        let rec pass acc = function
          | [] -> List.rev acc
          | runs ->
            let batch, rest = take fanin runs in
            let merged = merge compare (List.map Heap_file.to_seq batch) in
            let out = Exec_ctx.temp ctx schema in
            Seq.iter (fun t -> ignore (Heap_file.append out t)) merged;
            List.iter (fun h -> Exec_ctx.drop ctx h) batch;
            pass (out :: acc) rest
        in
        merge_passes (pass [] runs)
      end
    in
    let final_runs = merge_passes (List.rev !runs) in
    let bit = Biter.of_seq schema (merge compare (List.map Heap_file.to_seq final_runs)) in
    {
      bit with
      Biter.close =
        (fun () ->
          bit.Biter.close ();
          List.iter (fun h -> Exec_ctx.drop ctx h) final_runs);
    }
  end
