module Rng = Cddpd_util.Rng
module Ast = Cddpd_sql.Ast
module Tuple = Cddpd_storage.Tuple

type t = { name : string; weights : (string * float) array }

let make ~name weights =
  (match weights with
  | [] -> invalid_arg "Mix.make: no columns"
  | _ :: _ -> ());
  List.iter
    (fun (_, w) -> if w <= 0.0 then invalid_arg "Mix.make: weights must be positive")
    weights;
  let columns = List.map fst weights in
  if List.length (List.sort_uniq String.compare columns) <> List.length columns then
    invalid_arg "Mix.make: duplicate columns";
  let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 weights in
  { name; weights = Array.of_list (List.map (fun (c, w) -> (c, w /. total)) weights) }

let name t = t.name

let weights t = Array.to_list t.weights

let weight t column =
  Array.fold_left
    (fun acc (c, w) -> if String.equal c column then acc +. w else acc)
    0.0 t.weights

let sample_column t rng = Rng.pick_weighted rng t.weights

let sample_query t ~table ~value_range rng =
  let column = sample_column t rng in
  let value = Rng.int rng value_range in
  Ast.Select
    {
      projection = Ast.Columns [ column ];
      table;
      where = [ Ast.Cmp { column; op = Ast.Eq; value = Tuple.Int value } ];
    }

let mix_a = make ~name:"A" [ ("a", 55.0); ("b", 25.0); ("c", 10.0); ("d", 10.0) ]
let mix_b = make ~name:"B" [ ("a", 25.0); ("b", 55.0); ("c", 10.0); ("d", 10.0) ]
let mix_c = make ~name:"C" [ ("a", 10.0); ("b", 10.0); ("c", 55.0); ("d", 25.0) ]
let mix_d = make ~name:"D" [ ("a", 10.0); ("b", 10.0); ("c", 25.0); ("d", 55.0) ]

let of_letter c =
  match Char.uppercase_ascii c with
  | 'A' -> mix_a
  | 'B' -> mix_b
  | 'C' -> mix_c
  | 'D' -> mix_d
  | c -> invalid_arg (Printf.sprintf "Mix.of_letter: %C is not one of A-D" c)

let pp ppf t =
  Format.fprintf ppf "%s[%s]" t.name
    (String.concat "; "
       (List.map (fun (c, w) -> Printf.sprintf "%s:%.0f%%" c (w *. 100.0)) (weights t)))
