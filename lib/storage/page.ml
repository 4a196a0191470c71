let size = 4096

let capacity ~row_bytes = max 1 (size / max 1 row_bytes)

let pages_for ~rows ~row_bytes =
  if rows = 0 then 0 else (rows + capacity ~row_bytes - 1) / capacity ~row_bytes

type rid = { page : int; slot : int }

let compare_rid a b =
  let c = Stdlib.compare a.page b.page in
  if c <> 0 then c else Stdlib.compare a.slot b.slot
