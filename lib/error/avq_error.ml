type io_op = Read | Write | Alloc

type t =
  | Io_fault of { op : io_op; file : int; page : int; attempts : int }
  | Corruption of { file : int; page : int; detail : string }
  | Resource_exceeded of { resource : string; limit : int; used : int }
  | Timeout of { limit_ms : float }
  | Cancelled
  | Bad_statement of string
  | Unavailable of string

exception Error of t

let error e = raise (Error e)

let io_op_label = function Read -> "read" | Write -> "write" | Alloc -> "alloc"

let kind_label = function
  | Io_fault _ -> "io-fault"
  | Corruption _ -> "corruption"
  | Resource_exceeded _ -> "resource-exceeded"
  | Timeout _ -> "timeout"
  | Cancelled -> "cancelled"
  | Bad_statement _ -> "bad-statement"
  | Unavailable _ -> "unavailable"

let to_string e =
  match e with
  | Io_fault { op; file; page; attempts } ->
    Printf.sprintf "kind=io-fault op=%s file=%d page=%d attempts=%d"
      (io_op_label op) file page attempts
  | Corruption { file; page; detail } ->
    Printf.sprintf "kind=corruption file=%d page=%d detail=%S" file page detail
  | Resource_exceeded { resource; limit; used } ->
    Printf.sprintf "kind=resource-exceeded resource=%s limit=%d used=%d"
      resource limit used
  | Timeout { limit_ms } -> Printf.sprintf "kind=timeout limit_ms=%g" limit_ms
  | Cancelled -> "kind=cancelled"
  | Bad_statement msg -> Printf.sprintf "kind=bad-statement detail=%S" msg
  | Unavailable msg -> Printf.sprintf "kind=unavailable detail=%S" msg

let of_exn = function Error e -> Some e | _ -> None

(* Render [Error e] as its taxonomy line in uncaught-exception traces. *)
let () =
  Printexc.register_printer (function
    | Error e -> Some ("Avq_error.Error: " ^ to_string e)
    | _ -> None)
