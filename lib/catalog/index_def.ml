type t = { table : string; columns : string list }

let make ~table ~columns =
  if columns = [] then invalid_arg "Index_def.make: no columns";
  let sorted = List.sort_uniq String.compare columns in
  if List.length sorted <> List.length columns then
    invalid_arg "Index_def.make: duplicate columns";
  { table; columns }

let table t = t.table

let columns t = t.columns

let name t = Printf.sprintf "I(%s)" (String.concat "," t.columns)

let compare a b =
  let c = String.compare a.table b.table in
  if c <> 0 then c else List.compare String.compare a.columns b.columns

let equal a b = compare a b = 0
