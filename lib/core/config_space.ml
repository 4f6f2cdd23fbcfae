module Design = Cddpd_catalog.Design
module Structure = Cddpd_catalog.Structure

type t = { designs : Design.t array }

module Design_set = Set.Make (struct
  type t = Design.t

  let compare = Design.compare
end)

(* First occurrence wins; set-backed so spaces of hundreds of configs
   dedup in O(n log n), not O(n^2). *)
let dedup designs =
  let rec go seen acc designs =
    match designs with
    | [] -> List.rev acc
    | d :: rest ->
        if Design_set.mem d seen then go seen acc rest
        else go (Design_set.add d seen) (d :: acc) rest
  in
  go Design_set.empty [] designs

let of_designs designs =
  (match designs with
  | [] -> invalid_arg "Config_space.of_designs: empty"
  | _ :: _ -> ());
  { designs = Array.of_list (dedup designs) }

let single_structure candidates =
  of_designs
    (Design.empty :: List.map (fun s -> Design.add_structure s Design.empty) candidates)

let single_index candidates = single_structure (List.map Structure.index candidates)

let enumerate ~candidates ?max_structures ?space_bound_bytes ~size_of () =
  let n = List.length candidates in
  (match max_structures with
  | None when n > 20 ->
      invalid_arg
        (Printf.sprintf
           "Config_space.enumerate: %d candidates with no max_structures cap would \
            enumerate 2^%d subsets; pass ~max_structures to bound configuration \
            width, or build a pruned space with Cddpd_core.Pruner.space (the \
            `cddpd recommend --prune` pipeline)"
           n n)
  | _ -> ());
  let cap = match max_structures with None -> n | Some c -> c in
  let fits design =
    match space_bound_bytes with
    | None -> true
    | Some bound ->
        Design.fold (fun structure acc -> acc + size_of structure) design 0 <= bound
  in
  (* Depth-first subset enumeration, pruning on cardinality. *)
  let out = ref [] in
  let rec go design count candidates =
    match candidates with
    | [] -> if fits design then out := design :: !out
    | c :: rest ->
        go design count rest;
        if count < cap then go (Design.add_structure c design) (count + 1) rest
  in
  go Design.empty 0 candidates;
  (* Ensure the empty design survives even if space_bound excludes others. *)
  let designs = dedup (Design.empty :: List.rev !out) in
  { designs = Array.of_list designs }

let size t = Array.length t.designs

let design t i =
  if i < 0 || i >= Array.length t.designs then
    invalid_arg "Config_space.design: id out of range";
  t.designs.(i)

let designs t = Array.copy t.designs

let id_of t d =
  let n = Array.length t.designs in
  let rec go i =
    if i >= n then None else if Design.equal t.designs.(i) d then Some i else go (i + 1)
  in
  go 0

let id_of_exn t d =
  match id_of t d with
  | Some i -> i
  | None ->
      invalid_arg
        (Printf.sprintf "Config_space.id_of_exn: design %s not in space" (Design.name d))

let restrict t ids =
  let rec go seen acc ids =
    match ids with
    | [] -> List.rev acc
    | id :: rest ->
        if id < 0 || id >= Array.length t.designs then
          invalid_arg "Config_space.restrict: id out of range"
        else if List.mem id seen then go seen acc rest
        else go (id :: seen) (id :: acc) rest
  in
  let kept = go [] [] ids in
  if kept = [] then invalid_arg "Config_space.restrict: empty selection";
  let mapping = Array.of_list kept in
  ({ designs = Array.map (fun id -> t.designs.(id)) mapping }, mapping)
