type bucket = {
  blo : Value.t;    (* smallest value in the bucket *)
  bhi : Value.t;    (* largest value in the bucket *)
  brows : int;
  bndv : int;
}

type t = {
  buckets : bucket array;
  total : int;
  ndv : int;
  vmin : Value.t;
  vmax : Value.t;
}

let build ?(buckets = 32) values =
  if values = [] then invalid_arg "Histogram.build: empty column";
  let sorted = List.sort Value.compare values in
  let arr = Array.of_list sorted in
  let n = Array.length arr in
  let nb = max 1 (min buckets n) in
  let make_bucket lo hi =
    (* rows in arr.[lo..hi-1] *)
    let ndv = ref 1 in
    for i = lo + 1 to hi - 1 do
      if Value.compare arr.(i - 1) arr.(i) <> 0 then incr ndv
    done;
    { blo = arr.(lo); bhi = arr.(hi - 1); brows = hi - lo; bndv = !ndv }
  in
  let bs =
    Array.init nb (fun b ->
        let lo = b * n / nb and hi = (b + 1) * n / nb in
        make_bucket lo (max hi (lo + 1)))
  in
  let total_ndv =
    let d = ref 1 in
    for i = 1 to n - 1 do
      if Value.compare arr.(i - 1) arr.(i) <> 0 then incr d
    done;
    !d
  in
  { buckets = bs; total = n; ndv = total_ndv; vmin = arr.(0); vmax = arr.(n - 1) }

let count t = t.total
let ndv t = t.ndv
let min_value t = t.vmin
let max_value t = t.vmax

(* Fraction of a bucket's rows with value < v (strict), by interpolation.
   The linear ratio is scaled by (1 - 1/ndv): rows equal to the bucket's
   maximum belong to the bucket, so even at v = bhi the strictly-below
   fraction must leave one value's share out (keeps sel_lt + sel_eq
   monotone across bucket boundaries). *)
let frac_below b v =
  let c_lo = Value.compare v b.blo and c_hi = Value.compare v b.bhi in
  if c_lo <= 0 then 0.
  else if c_hi > 0 then 1.
  else
    let top_share = 1. -. (1. /. float_of_int (max 1 b.bndv)) in
    match b.blo, b.bhi with
    | (Value.Int _ | Value.Float _ | Value.Date _), (Value.Int _ | Value.Float _ | Value.Date _)
      ->
      let lo = Value.to_float b.blo and hi = Value.to_float b.bhi in
      if hi <= lo then 0.5
      else (Value.to_float v -. lo) /. (hi -. lo) *. top_share
    | _ -> 0.5 *. top_share

let sel_lt t v =
  let rows_below =
    Array.fold_left
      (fun acc b -> acc +. (frac_below b v *. float_of_int b.brows))
      0. t.buckets
  in
  rows_below /. float_of_int t.total

let sel_eq t v =
  if Value.compare v t.vmin < 0 || Value.compare v t.vmax > 0 then 0.
  else
    (* Average frequency of a value within the bucket containing v. *)
    let bucket =
      Array.fold_left
        (fun acc b ->
          match acc with
          | Some _ -> acc
          | None ->
            if Value.compare v b.blo >= 0 && Value.compare v b.bhi <= 0 then Some b
            else None)
        None t.buckets
    in
    match bucket with
    | None -> 1. /. float_of_int (max 1 t.ndv)
    | Some b ->
      float_of_int b.brows
      /. float_of_int (max 1 b.bndv)
      /. float_of_int t.total

let clamp01 x = if x < 0. then 0. else if x > 1. then 1. else x

let sel_range t ?lo ?hi () =
  let below_hi =
    match hi with
    | None -> 1.
    | Some (v, incl) -> sel_lt t v +. (if incl then sel_eq t v else 0.)
  in
  let below_lo =
    match lo with
    | None -> 0.
    | Some (v, incl) -> sel_lt t v +. (if incl then 0. else sel_eq t v)
  in
  clamp01 (below_hi -. below_lo)
