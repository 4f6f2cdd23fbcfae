let check_nonempty name xs =
  if Array.length xs = 0 then invalid_arg (name ^ ": empty array")

let total xs = Array.fold_left ( +. ) 0.0 xs

let mean xs =
  check_nonempty "Stats.mean" xs;
  total xs /. float_of_int (Array.length xs)

let variance xs =
  check_nonempty "Stats.variance" xs;
  let m = mean xs in
  let acc = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs in
  acc /. float_of_int (Array.length xs)

let minimum xs =
  check_nonempty "Stats.minimum" xs;
  Array.fold_left min xs.(0) xs

let maximum xs =
  check_nonempty "Stats.maximum" xs;
  Array.fold_left max xs.(0) xs

let percentile xs p =
  check_nonempty "Stats.percentile" xs;
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p outside [0,100]";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  if n = 1 then sorted.(0)
  else
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))

let histogram_counts xs ~buckets ~lo ~hi =
  if buckets <= 0 then invalid_arg "Stats.histogram_counts: buckets <= 0";
  if hi <= lo then invalid_arg "Stats.histogram_counts: hi <= lo";
  let counts = Array.make buckets 0 in
  let width = (hi -. lo) /. float_of_int buckets in
  Array.iter
    (fun x ->
      let b = int_of_float ((x -. lo) /. width) in
      let b = max 0 (min (buckets - 1) b) in
      counts.(b) <- counts.(b) + 1)
    xs;
  counts
