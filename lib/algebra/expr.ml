type t =
  | Col of Schema.column
  | Const of Value.t
  | Binop of binop * t * t

and binop = Add | Sub | Mul | Div

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type pred =
  | Cmp of cmp * t * t
  | And of pred * pred
  | Or of pred * pred
  | Not of pred

let col ?qual name ty = Col (Schema.column ?qual name ty)
let int i = Const (Value.Int i)
let flt f = Const (Value.Float f)

let rec columns = function
  | Col c -> [ c ]
  | Const _ -> []
  | Binop (_, a, b) -> columns a @ columns b

let rec pred_columns = function
  | Cmp (_, a, b) -> columns a @ columns b
  | And (p, q) | Or (p, q) -> pred_columns p @ pred_columns q
  | Not p -> pred_columns p

let qualifiers p =
  List.sort_uniq String.compare
    (List.map (fun c -> c.Schema.cqual) (pred_columns p))

let rec conjuncts = function
  | And (p, q) -> conjuncts p @ conjuncts q
  | p -> [ p ]

let conjoin = function
  | [] -> None
  | p :: ps -> Some (List.fold_left (fun acc q -> And (acc, q)) p ps)

let as_equijoin = function
  | Cmp (Eq, Col a, Col b) when not (String.equal a.Schema.cqual b.Schema.cqual) ->
    Some (a, b)
  | _ -> None

let rec type_of = function
  | Col c -> c.Schema.cty
  | Const v -> Value.type_of v
  | Binop (Div, _, _) -> Datatype.Float
  | Binop (_, a, b) -> (
    match type_of a, type_of b with
    | Datatype.Int, Datatype.Int -> Datatype.Int
    | Datatype.Date, Datatype.Int -> Datatype.Date
    | Datatype.Date, Datatype.Date -> Datatype.Int
    | _ -> Datatype.Float)

let rec subst_expr_columns f = function
  | Col c -> (match f c with Some c' -> Col c' | None -> Col c)
  | Const v -> Const v
  | Binop (op, a, b) -> Binop (op, subst_expr_columns f a, subst_expr_columns f b)

let rec subst_columns f = function
  | Cmp (op, a, b) -> Cmp (op, subst_expr_columns f a, subst_expr_columns f b)
  | And (p, q) -> And (subst_columns f p, subst_columns f q)
  | Or (p, q) -> Or (subst_columns f p, subst_columns f q)
  | Not p -> Not (subst_columns f p)

exception Unresolved_column of string

let resolve schema c =
  match Schema.index_of_column schema c with
  | Some i -> i
  | None -> (
    (* Fall back to name-based lookup: a column may have been re-qualified
       by view materialization. *)
    match Schema.find schema ~qual:c.Schema.cqual c.Schema.cname with
    | Some i -> i
    | None ->
      raise
        (Unresolved_column
           (Format.asprintf "%s not in %a" (Schema.column_to_string c) Schema.pp
              schema)))

let resolve_column = resolve

let binop_fn = function
  | Add -> Value.add
  | Sub -> Value.sub
  | Mul -> Value.mul
  | Div -> Value.div

let rec compile schema = function
  | Col c ->
    let i = resolve schema c in
    fun tup -> Tuple.get tup i
  | Const v -> fun _ -> v
  | Binop (op, a, b) ->
    let fa = compile schema a and fb = compile schema b and f = binop_fn op in
    fun tup -> f (fa tup) (fb tup)

let eval_cmp op a b =
  let c = Value.compare a b in
  match op with
  | Eq -> c = 0
  | Ne -> c <> 0
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0

let rec compile_pred schema = function
  | Cmp (op, a, b) ->
    let fa = compile schema a and fb = compile schema b in
    fun tup -> eval_cmp op (fa tup) (fb tup)
  | And (p, q) ->
    let fp = compile_pred schema p and fq = compile_pred schema q in
    fun tup -> fp tup && fq tup
  | Or (p, q) ->
    let fp = compile_pred schema p and fq = compile_pred schema q in
    fun tup -> fp tup || fq tup
  | Not p ->
    let fp = compile_pred schema p in
    fun tup -> not (fp tup)

let binop_str = function Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/"

let cmp_str = function
  | Eq -> "=" | Ne -> "<>" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="

let rec pp ppf = function
  | Col c -> Format.pp_print_string ppf (Schema.column_to_string c)
  | Const v -> Value.pp ppf v
  | Binop (op, a, b) -> Format.fprintf ppf "(%a %s %a)" pp a (binop_str op) pp b

let rec pp_pred ppf = function
  | Cmp (op, a, b) -> Format.fprintf ppf "%a %s %a" pp a (cmp_str op) pp b
  | And (p, q) -> Format.fprintf ppf "(%a AND %a)" pp_pred p pp_pred q
  | Or (p, q) -> Format.fprintf ppf "(%a OR %a)" pp_pred p pp_pred q
  | Not p -> Format.fprintf ppf "NOT (%a)" pp_pred p

let to_string e = Format.asprintf "%a" pp e
let pred_to_string p = Format.asprintf "%a" pp_pred p
