type t = { triples : int array; reach : int; has_equality : bool }

let none = { triples = [||]; reach = 0; has_equality = false }

let of_list ranges =
  let triples = Array.make (3 * List.length ranges) 0 in
  List.iteri
    (fun i (offset, lo, hi) ->
      if offset < 0 then invalid_arg "Ranges.of_list: negative offset";
      triples.(3 * i) <- offset;
      triples.((3 * i) + 1) <- lo;
      triples.((3 * i) + 2) <- hi)
    ranges;
  {
    triples;
    reach = List.fold_left (fun acc (offset, _, _) -> max acc (offset + 8)) 0 ranges;
    has_equality = List.exists (fun (_, lo, hi) -> lo = hi) ranges;
  }

let triples t = t.triples

let reach t = t.reach

let has_equality t = t.has_equality
