type t = { schema : Schema.t; tuples : Tuple.t list }

let create schema tuples = { schema; tuples }
let schema t = t.schema
let tuples t = t.tuples
let cardinality t = List.length t.tuples
let is_empty t = t.tuples = []

let iter f t = List.iter f t.tuples
let fold f init t = List.fold_left f init t.tuples
let filter p t = { t with tuples = List.filter p t.tuples }
let map_tuples schema f t = { schema; tuples = List.map f t.tuples }

let sort_by cols t =
  { t with tuples = List.stable_sort (Tuple.compare_at cols) t.tuples }

let multiset_equal a b =
  cardinality a = cardinality b
  &&
  let sa = List.sort Tuple.compare a.tuples in
  let sb = List.sort Tuple.compare b.tuples in
  List.for_all2 (fun x y -> Tuple.equal x y) sa sb

let pp ppf t =
  let header =
    List.map Schema.column_to_string (Schema.columns t.schema)
  in
  let rows = List.map (fun tup ->
      Array.to_list (Array.map Value.to_string tup)) t.tuples
  in
  let ncols = List.length header in
  let widths = Array.make ncols 0 in
  let measure row =
    List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row
  in
  measure header;
  List.iter measure rows;
  let pp_row ppf row =
    List.iteri
      (fun i cell ->
        if i > 0 then Format.fprintf ppf " | ";
        Format.fprintf ppf "%-*s" widths.(i) cell)
      row
  in
  pp_row ppf header;
  Format.pp_print_newline ppf ();
  let total = Array.fold_left ( + ) 0 widths + (3 * (ncols - 1)) in
  Format.pp_print_string ppf (String.make (max total 1) '-');
  Format.pp_print_newline ppf ();
  List.iter
    (fun row ->
      pp_row ppf row;
      Format.pp_print_newline ppf ())
    rows;
  Format.fprintf ppf "(%d rows)" (List.length rows)
