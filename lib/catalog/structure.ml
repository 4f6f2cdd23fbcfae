type t = Index of Index_def.t | View of View_def.t

let index i = Index i

let view v = View v

let table t =
  match t with Index i -> Index_def.table i | View v -> View_def.table v

let name t = match t with Index i -> Index_def.name i | View v -> View_def.name v

let compare a b =
  match (a, b) with
  | Index i1, Index i2 -> Index_def.compare i1 i2
  | View v1, View v2 -> View_def.compare v1 v2
  | Index _, View _ -> -1
  | View _, Index _ -> 1

let equal a b = compare a b = 0

let as_index t = match t with Index i -> Some i | View _ -> None

let as_view t = match t with View v -> Some v | Index _ -> None
