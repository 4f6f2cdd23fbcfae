type t = { table : string; group_by : string }

let make ~table ~group_by = { table; group_by }

let table t = t.table

let group_by t = t.group_by

let name t = Printf.sprintf "MV(%s)" t.group_by

let compare a b =
  let c = String.compare a.table b.table in
  if c <> 0 then c else String.compare a.group_by b.group_by

let equal a b = compare a b = 0
