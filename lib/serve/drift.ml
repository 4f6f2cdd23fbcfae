module Cost_key = Cddpd_engine.Cost_key
module Compress = Cddpd_workload.Compress

type profile = { counts : int Cost_key.Id_tbl.t; size : int }

let profile_of_clustering ~keys clustering =
  let reps = clustering.Compress.representatives in
  let counts = Cost_key.Id_tbl.create (Array.length reps) in
  Array.iteri
    (fun c rep -> Cost_key.Id_tbl.replace counts keys.(rep) clustering.Compress.counts.(c))
    reps;
  { counts; size = Array.length keys }

(* [Σ |ca/na − cb/nb| = Σ |ca·nb − cb·na| / (na·nb)]: the numerator is
   an integer sum, so neither the order the ids are visited in nor the
   key bytes can move a bit of the result; the one rounding is the final
   division. *)
let distance a b =
  let na = a.size and nb = b.size in
  if na = 0 || nb = 0 then if na = nb then 0.0 else 1.0
  else begin
    let moved = ref 0 in
    Cost_key.Id_tbl.iter
      (fun id ca ->
        let cb = Option.value ~default:0 (Cost_key.Id_tbl.find_opt b.counts id) in
        moved := !moved + abs ((ca * nb) - (cb * na)))
      a.counts;
    Cost_key.Id_tbl.iter
      (fun id cb -> if not (Cost_key.Id_tbl.mem a.counts id) then moved := !moved + (cb * na))
      b.counts;
    float_of_int !moved /. float_of_int (na * nb)
  end

let default_threshold = 0.5
