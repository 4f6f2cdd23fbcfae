type t = Bytes.t

let log2_bits = 12 (* 4,096 bits: 512 bytes a page *)

let create () = Bytes.make ((1 lsl log2_bits) / 8) '\000'

let bit ~key v = ((v + (key * 0x9E3779B97F4A7C1)) * 0x2545F4914F6CDD1D) lsr (Sys.int_size - log2_bits)

let add t ~key v =
  let b = bit ~key v in
  Bytes.set_uint8 t (b lsr 3) (Bytes.get_uint8 t (b lsr 3) lor (1 lsl (b land 7)))

let equalities r ~key_of =
  let eq = ref [] in
  for k = (Array.length r / 3) - 1 downto 0 do
    match key_of r.(3 * k) with
    | Some key when Int.equal r.((3 * k) + 1) r.((3 * k) + 2) -> eq := key :: r.((3 * k) + 1) :: !eq
    | Some _ | None -> ()
  done;
  Array.of_list !eq

(* Top-level and closure-free, so a page's test allocates nothing. *)
let rec excludes_from t eq below i =
  i < Array.length eq
  && (eq.(i) < below
      && (let b = bit ~key:eq.(i) eq.(i + 1) in
          Bytes.get_uint8 t (b lsr 3) land (1 lsl (b land 7)) = 0)
     || excludes_from t eq below (i + 2))

let excludes t eq ~below = excludes_from t eq below 0
