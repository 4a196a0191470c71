type t = Int | Float | String | Bool | Date

let equal a b =
  match a, b with
  | Int, Int | Float, Float | String, String | Bool, Bool | Date, Date -> true
  | (Int | Float | String | Bool | Date), _ -> false

let to_string = function
  | Int -> "INT"
  | Float -> "FLOAT"
  | String -> "STRING"
  | Bool -> "BOOL"
  | Date -> "DATE"

let pp ppf t = Format.pp_print_string ppf (to_string t)

(* Average in-page width; strings are budgeted at 16 bytes which matches the
   synthetic workloads' short identifiers. *)
let byte_width = function
  | Int -> 8
  | Float -> 8
  | String -> 16
  | Bool -> 1
  | Date -> 4
