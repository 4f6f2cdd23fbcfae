(* LSD radix sort specialised to [int array].  Only the bits on which the
   values differ are sorted: one pass finds them (the OR of every value
   XOR the first), a second counts every digit of every value at once,
   and one stable scatter per digit finishes.  Digits are at most
   [max_digit_bits] wide and split the differing span evenly, so packed
   index keys spanning 30-40 bits take four or five scatters.  The sign
   bit is flipped on the way into a digit, so negative ints sort first.
   Short inputs take an insertion sort instead: the counting tables would
   cost more than the data. *)

let max_digit_bits = 8

let insertion_threshold = 32

let insertion_sort (a : int array) n =
  for i = 1 to n - 1 do
    let x = Array.unsafe_get a i in
    let j = ref (i - 1) in
    while !j >= 0 && Array.unsafe_get a !j > x do
      Array.unsafe_set a (!j + 1) (Array.unsafe_get a !j);
      decr j
    done;
    Array.unsafe_set a (!j + 1) x
  done

(* The digit of [x] at [shift], in the unsigned order of [x lxor min_int]. *)
let digit x shift mask = ((x lxor min_int) lsr shift) land mask

(* Sort [a.(0) .. a.(n-1)] with [b.(off) .. b.(off + n - 1)] as scratch. *)
let radix (a : int array) n (b : int array) off =
  let first = a.(0) in
  let diff = ref 0 in
  for i = 1 to n - 1 do
    diff := !diff lor (Array.unsafe_get a i lxor first)
  done;
  let diff = !diff in
  if diff <> 0 then begin
    let low = ref 0 in
    while (diff lsr !low) land 1 = 0 do
      incr low
    done;
    let high = ref !low in
    while diff lsr !high <> 0 do
      incr high
    done;
    let low = !low in
    let span = !high - low in
    let passes = (span + max_digit_bits - 1) / max_digit_bits in
    let bits = (span + passes - 1) / passes in
    let radix = 1 lsl bits and mask = (1 lsl bits) - 1 in
    let counts = Array.make (passes * radix) 0 in
    for i = 0 to n - 1 do
      let rest = ref ((Array.unsafe_get a i lxor min_int) lsr low) and base = ref 0 in
      for _ = 1 to passes do
        let c = !base + (!rest land mask) in
        Array.unsafe_set counts c (Array.unsafe_get counts c + 1);
        rest := !rest lsr bits;
        base := !base + radix
      done
    done;
    (* [src] and [dst] alternate between [a] at 0 and [b] at [off]. *)
    let src = ref a and src_off = ref 0 and dst = ref b and dst_off = ref off in
    for p = 0 to passes - 1 do
      let shift = low + (p * bits) and base = p * radix in
      (* A digit every value shares leaves the order as it is. *)
      if counts.(base + digit first shift mask) < n then begin
        let sum = ref !dst_off in
        for d = base to base + radix - 1 do
          let c = Array.unsafe_get counts d in
          Array.unsafe_set counts d !sum;
          sum := !sum + c
        done;
        let s = !src and so = !src_off and d = !dst in
        for i = so to so + n - 1 do
          let x = Array.unsafe_get s i in
          let c = base + digit x shift mask in
          let o = Array.unsafe_get counts c in
          Array.unsafe_set d o x;
          Array.unsafe_set counts c (o + 1)
        done;
        let t = !src and t_off = !src_off in
        src := !dst;
        src_off := !dst_off;
        dst := t;
        dst_off := t_off
      end
    done;
    if !src != a || !src_off <> 0 then Array.blit !src !src_off a 0 n
  end

let sort_prefix (a : int array) n =
  if n < 0 || n > Array.length a then invalid_arg "Int_sort.sort_prefix: length out of range";
  if n <= insertion_threshold then insertion_sort a n
  else if Array.length a >= 2 * n then radix a n a n
  else radix a n (Array.make n 0) 0

let sort (a : int array) = sort_prefix a (Array.length a)

(* Two passes over the sorted input: count the runs, then fill exactly
   sized arrays, so nothing is trimmed or reallocated. *)
let runs (sorted : int array) =
  let n = Array.length sorted in
  let distinct = ref (if n = 0 then 0 else 1) in
  for i = 1 to n - 1 do
    if Array.unsafe_get sorted i <> Array.unsafe_get sorted (i - 1) then incr distinct
  done;
  let values = Array.make !distinct 0 and counts = Array.make !distinct 0 in
  let r = ref (-1) in
  for i = 0 to n - 1 do
    let v = Array.unsafe_get sorted i in
    if !r < 0 || v <> values.(!r) then begin
      incr r;
      values.(!r) <- v
    end;
    counts.(!r) <- counts.(!r) + 1
  done;
  (values, counts)
