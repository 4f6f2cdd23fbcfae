module Rng = Cddpd_util.Rng
module Tuple = Cddpd_storage.Tuple

let uniform_rows ~columns ~rows ~value_range ~seed =
  if columns <= 0 then invalid_arg "Data_gen.uniform_rows: columns <= 0";
  if rows < 0 then invalid_arg "Data_gen.uniform_rows: rows < 0";
  if value_range <= 0 then invalid_arg "Data_gen.uniform_rows: value_range <= 0";
  let rng = Rng.create seed in
  let out = Array.make rows [||] in
  for i = 0 to rows - 1 do
    let tuple = Array.make columns (Tuple.Int 0) in
    for j = 0 to columns - 1 do
      tuple.(j) <- Tuple.Int (Rng.int rng value_range)
    done;
    out.(i) <- tuple
  done;
  out
