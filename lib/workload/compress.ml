type t = {
  cluster_of : int array;
  representatives : int array;
  counts : int array;
}

let n_clusters t = Array.length t.representatives

let cluster_by (type k) ~hash ~(equal : k -> k -> bool) keys =
  let module Tbl = Hashtbl.Make (struct
    type t = k

    let equal = equal
    let hash = hash
  end) in
  let n = Array.length keys in
  let ids = Tbl.create (max 16 (n / 4)) in
  let cluster_of = Array.make n 0 in
  let reps = ref [] in
  let next = ref 0 in
  Array.iteri
    (fun i k ->
      match Tbl.find_opt ids k with
      | Some id -> cluster_of.(i) <- id
      | None ->
          let id = !next in
          incr next;
          Tbl.replace ids k id;
          reps := i :: !reps;
          cluster_of.(i) <- id)
    keys;
  let representatives = Array.of_list (List.rev !reps) in
  let counts = Array.make !next 0 in
  Array.iter (fun id -> counts.(id) <- counts.(id) + 1) cluster_of;
  { cluster_of; representatives; counts }

let cluster_keys keys = cluster_by ~hash:Hashtbl.hash ~equal:String.equal keys

let cluster ~key items = cluster_keys (Array.map key items)
