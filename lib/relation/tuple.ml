type t = Value.t array

let make = Array.of_list
let arity = Array.length
let get t i = t.(i)
let concat = Array.append
let project t idxs = Array.of_list (List.map (fun i -> t.(i)) idxs)
let project_arr t idxs = Array.map (fun i -> t.(i)) idxs

let compare_at cols a b =
  let n = Array.length cols in
  let rec loop i =
    if i >= n then 0
    else
      let c = Value.compare a.(cols.(i)) b.(cols.(i)) in
      if c <> 0 then c else loop (i + 1)
  in
  loop 0

let compare a b =
  let n = Array.length a in
  let c = Stdlib.compare n (Array.length b) in
  if c <> 0 then c
  else
    let rec loop i =
      if i >= n then 0
      else
        let c = Value.compare a.(i) b.(i) in
        if c <> 0 then c else loop (i + 1)
    in
    loop 0

let equal a b = compare a b = 0

let hash_at cols t =
  Array.fold_left (fun acc i -> (acc * 31) + Value.hash t.(i)) 17 cols

let to_string t =
  "[" ^ String.concat "; " (Array.to_list (Array.map Value.to_string t)) ^ "]"
