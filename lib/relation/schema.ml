type column = { cqual : string; cname : string; cty : Datatype.t }

type t = column array

exception Ambiguous of string

let column ?(qual = "") cname cty = { cqual = qual; cname; cty }
let of_columns cols = Array.of_list cols
let columns t = Array.to_list t
let arity = Array.length
let get t i = t.(i)
let append a b = Array.append a b
let project t idxs = Array.of_list (List.map (fun i -> t.(i)) idxs)

let column_equal a b =
  String.equal a.cqual b.cqual && String.equal a.cname b.cname
  && Datatype.equal a.cty b.cty

let matches ~qual ~name c =
  String.equal c.cname name
  && (match qual with None -> true | Some q -> String.equal c.cqual q)

let find t ?qual name =
  let hits = ref [] in
  Array.iteri (fun i c -> if matches ~qual ~name c then hits := i :: !hits) t;
  match !hits with
  | [] -> None
  | [ i ] -> Some i
  | _ :: _ :: _ ->
    (* Same qualified column appearing twice (self-join output) is resolved
       to its first occurrence; a bare name matching distinct qualifiers is
       ambiguous. *)
    let cs = List.map (fun i -> t.(i)) !hits in
    let first = List.hd cs in
    if List.for_all (fun c -> String.equal c.cqual first.cqual) cs then
      Some (List.fold_left min (List.hd !hits) !hits)
    else raise (Ambiguous name)

let find_exn t ?qual name =
  match find t ?qual name with Some i -> i | None -> raise Not_found

let index_of_column t c =
  let n = Array.length t in
  let rec loop i =
    if i >= n then None
    else if String.equal t.(i).cqual c.cqual && String.equal t.(i).cname c.cname
    then Some i
    else loop (i + 1)
  in
  loop 0

let mem t c = index_of_column t c <> None

let byte_width t =
  Array.fold_left (fun acc c -> acc + Datatype.byte_width c.cty) 0 t

let rename_qualifier t q = Array.map (fun c -> { c with cqual = q }) t

let column_to_string c =
  if String.equal c.cqual "" then c.cname else c.cqual ^ "." ^ c.cname

let pp_column ppf c =
  Format.fprintf ppf "%s:%a" (column_to_string c) Datatype.pp c.cty

let pp ppf t =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       pp_column)
    (columns t)
