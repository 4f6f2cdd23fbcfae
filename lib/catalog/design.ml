module Set = Stdlib.Set.Make (Structure)

type t = Set.t

let empty = Set.empty

(* -- structure-level ------------------------------------------------------ *)

let of_structures = Set.of_list

let structures = Set.elements

let add_structure = Set.add

let mem_structure = Set.mem

let fold = Set.fold

(* -- index-level ----------------------------------------------------------- *)

let of_list indexes = Set.of_list (List.map Structure.index indexes)

let indexes t = List.filter_map Structure.as_index (Set.elements t)

let singleton i = Set.singleton (Structure.index i)

let add i t = Set.add (Structure.index i) t

let fold_indexes f t init =
  Set.fold
    (fun s acc -> match Structure.as_index s with Some i -> f i acc | None -> acc)
    t init

(* -- view-level ------------------------------------------------------------ *)

let views t = List.filter_map Structure.as_view (Set.elements t)

let add_view v t = Set.add (Structure.view v) t

let fold_views f t init =
  Set.fold
    (fun s acc -> match Structure.as_view s with Some v -> f v acc | None -> acc)
    t init

(* -- set operations ---------------------------------------------------------- *)

let union = Set.union

let diff = Set.diff

let cardinality = Set.cardinal

let is_empty = Set.is_empty

let compare = Set.compare

let equal = Set.equal

let name t =
  if is_empty t then "{}"
  else
    Printf.sprintf "{%s}" (String.concat ", " (List.map Structure.name (structures t)))
