module Cost_key = Cddpd_engine.Cost_key
module Compress = Cddpd_workload.Compress

type profile = (string * float) list

let profile_of_clustering ~keys clustering =
  let n = Array.length keys in
  if n = 0 then []
  else begin
    let total = float_of_int n in
    let reps = clustering.Compress.representatives in
    let counts = clustering.Compress.counts in
    List.init (Array.length reps) (fun id ->
        (keys.(reps.(id)).Cost_key.key, float_of_int counts.(id) /. total))
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  end

let profile ~stats statements =
  let keys = Array.map (fun s -> Cost_key.id (Cost_key.statement stats s)) statements in
  profile_of_clustering ~keys
    (Compress.cluster_by ~hash:Cost_key.id_hash ~equal:Cost_key.id_equal keys)

let distance a b =
  let rec go a b acc =
    match (a, b) with
    | [], [] -> acc
    | (_, fa) :: ra, [] -> go ra [] (acc +. fa)
    | [], (_, fb) :: rb -> go [] rb (acc +. fb)
    | (ka, fa) :: ra, (kb, fb) :: rb ->
        let c = String.compare ka kb in
        if c = 0 then go ra rb (acc +. Float.abs (fa -. fb))
        else if c < 0 then go ra b (acc +. fa)
        else go a rb (acc +. fb)
  in
  go a b 0.0

let default_threshold = 0.5

let drifted ?(threshold = default_threshold) a b = distance a b > threshold
