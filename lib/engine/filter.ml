module Ast = Cddpd_sql.Ast
module Schema = Cddpd_catalog.Schema
module Tuple = Cddpd_storage.Tuple
module Ranges = Cddpd_storage.Ranges

let empty = (max_int, min_int)

let interval op v =
  match op with
  | Ast.Eq -> (v, v)
  | Ast.Le -> (min_int, v)
  | Ast.Ge -> (v, max_int)
  | Ast.Lt -> if v = min_int then empty else (min_int, v - 1)
  | Ast.Gt -> if v = max_int then empty else (v + 1, max_int)

let predicate_interval pred =
  match pred with
  | Ast.Cmp { op; value = Tuple.Int v; _ } -> Some (interval op v)
  | Ast.Between { low = Tuple.Int lo; high = Tuple.Int hi; _ } -> Some (lo, hi)
  | Ast.Cmp { value = Tuple.Text _; _ } | Ast.Between _ -> None

(* -- index seeks ---------------------------------------------------------- *)

type seek = { eq : int list; range : (int * int) option }

let unbounded = { eq = []; range = None }

let first_eq column where =
  List.find_map
    (fun pred ->
      match pred with
      | Ast.Cmp { column = c; op = Ast.Eq; value } when String.equal c column -> Some value
      | Ast.Cmp _ | Ast.Between _ -> None)
    where

(* The interval of the one usable comparison on [column], if there is
   exactly one: equalities and text literals are not usable. *)
let single_range column where =
  let usable =
    List.filter_map
      (fun pred ->
        match pred with
        | Ast.Cmp { op = Ast.Eq; _ } -> None
        | Ast.Cmp { column = c; _ } | Ast.Between { column = c; _ } ->
            if String.equal c column then predicate_interval pred else None)
      where
  in
  match usable with [ interval ] -> Some interval | [] | _ :: _ :: _ -> None

let seek key where =
  let rec walk columns eq =
    match columns with
    | [] -> { eq = List.rev eq; range = None }
    | column :: rest -> (
        match first_eq column where with
        | Some (Tuple.Int v) -> walk rest (v :: eq)
        | Some (Tuple.Text _) | None -> { eq = List.rev eq; range = single_range column where })
  in
  walk key []

(* -- layouts ---------------------------------------------------------------- *)

(* Where a column's value lives in a record: an integer at a fixed byte
   offset, or somewhere only the tuple decoder can reach. *)
type field = Fixed of int | Decoded

type layout = { names : string array; fields : field array }

(* Column [pos] has a fixed offset while every column up to it is an
   integer: the first text column makes the rest variable. *)
let rec prefix_fields pos (columns : Schema.column list) =
  match columns with
  | { Schema.ty = Schema.Int_type; _ } :: rest ->
      Fixed (Tuple.int_field_offset pos) :: prefix_fields (pos + 1) rest
  | _ -> List.map (fun _ -> Decoded) columns

let heap_layout (schema : Schema.table) =
  {
    names = Array.of_list (List.map (fun (c : Schema.column) -> c.Schema.name) schema.Schema.columns);
    fields = Array.of_list (prefix_fields 0 schema.Schema.columns);
  }

let entry_layout key_columns =
  let names = Array.of_list key_columns in
  { names; fields = Array.mapi (fun j _ -> Fixed (8 * j)) names }

let arity layout = Array.length layout.names

let rec find names name i =
  if i = Array.length names then invalid_arg ("Filter: no column " ^ name)
  else if String.equal names.(i) name then i
  else find names name (i + 1)

let position layout name = find layout.names name 0

let read layout pos buf base =
  match layout.fields.(pos) with
  | Fixed off -> Tuple.Int (Int64.to_int (Bytes.get_int64_le buf (base + off)))
  | Decoded -> Tuple.get_field_at buf ~base pos

let read_int layout pos buf base =
  match layout.fields.(pos) with
  | Fixed off -> Int64.to_int (Bytes.get_int64_le buf (base + off))
  | Decoded -> Tuple.int_exn (Tuple.get_field_at buf ~base pos)

(* -- compiled conjunctions --------------------------------------------------- *)

type t = { ranges : Ranges.t; residual : bytes -> int -> bool }

let satisfies op c =
  match op with
  | Ast.Eq -> c = 0
  | Ast.Lt -> c < 0
  | Ast.Le -> c <= 0
  | Ast.Gt -> c > 0
  | Ast.Ge -> c >= 0

let residual_test layout pos pred =
  match pred with
  | Ast.Cmp { op; value; _ } ->
      fun buf base -> satisfies op (Tuple.compare_value (read layout pos buf base) value)
  | Ast.Between { low; high; _ } ->
      fun buf base ->
        let v = read layout pos buf base in
        Tuple.compare_value v low >= 0 && Tuple.compare_value v high <= 0

let compile layout preds =
  let ranges = ref [] and residual = ref [] in
  List.iter
    (fun pred ->
      let pos =
        position layout (match pred with Ast.Cmp { column; _ } | Ast.Between { column; _ } -> column)
      in
      match (layout.fields.(pos), predicate_interval pred) with
      | Fixed off, Some (lo, hi) -> ranges := (off, lo, hi) :: !ranges
      | (Fixed _ | Decoded), _ -> residual := residual_test layout pos pred :: !residual)
    preds;
  let residual =
    match List.rev !residual with
    | [] -> fun _buf _base -> true
    | [ test ] -> test
    | tests -> fun buf base -> List.for_all (fun test -> test buf base) tests
  in
  { ranges = Ranges.of_list (List.rev !ranges); residual }

let ranges t = t.ranges

let residual t buf base = t.residual buf base
