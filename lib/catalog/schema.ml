module Tuple = Cddpd_storage.Tuple

type col_type = Int_type | Text_type

type column = { name : string; ty : col_type }

type table = { name : string; columns : column list }

let table name columns =
  (match columns with
  | [] -> invalid_arg "Schema.table: no columns"
  | _ :: _ -> ());
  let names = List.map fst columns in
  let sorted = List.sort_uniq String.compare names in
  if List.length sorted <> List.length names then
    invalid_arg "Schema.table: duplicate column names";
  { name; columns = List.map (fun (name, ty) -> { name; ty }) columns }

let column_index t name =
  let rec go i columns =
    match columns with
    | [] -> None
    | (c : column) :: rest ->
        if String.equal c.name name then Some i else go (i + 1) rest
  in
  go 0 t.columns

let column_index_exn t name =
  match column_index t name with Some i -> i | None -> raise Not_found

let column_type t name =
  List.find_map
    (fun (c : column) -> if String.equal c.name name then Some c.ty else None)
    t.columns

let mem_column t name = column_index t name <> None

let arity t = List.length t.columns

let value_matches ty v =
  match (ty, v) with
  | Int_type, Tuple.Int _ -> true
  | Text_type, Tuple.Text _ -> true
  | Int_type, Tuple.Text _ | Text_type, Tuple.Int _ -> false

let validate_tuple t tuple =
  if Array.length tuple <> arity t then
    Error
      (Printf.sprintf "tuple has %d fields, table %s has %d columns"
         (Array.length tuple) t.name (arity t))
  else
    let rec go i columns =
      match columns with
      | [] -> Ok ()
      | (c : column) :: rest ->
          if value_matches c.ty tuple.(i) then go (i + 1) rest
          else Error (Printf.sprintf "column %s: type mismatch" c.name)
    in
    go 0 t.columns
