type bucket = {
  lo : int; (* smallest value in the bucket *)
  hi : int; (* largest value in the bucket *)
  count : int; (* rows in the bucket *)
  distinct : int; (* distinct values in the bucket *)
}

type t = { total : int; total_distinct : int; buckets : bucket array }

(* Every bucket holds whole distinct values: it takes the next run while
   it holds fewer than [per_bucket] rows.  Over the sorted column this is
   "cut after [per_bucket] rows, then extend so equal values never
   straddle a boundary", so the buckets depend only on the multiset. *)
let of_counts ?(buckets = 64) values counts =
  if buckets <= 0 then invalid_arg "Histogram.of_counts: buckets <= 0";
  let d = Array.length values in
  if Array.length counts <> d then invalid_arg "Histogram.of_counts: length mismatch";
  let n = ref 0 in
  for r = 0 to d - 1 do
    if counts.(r) <= 0 then invalid_arg "Histogram.of_counts: count <= 0";
    if r > 0 && values.(r) <= values.(r - 1) then
      invalid_arg "Histogram.of_counts: values not strictly ascending";
    n := !n + counts.(r)
  done;
  let n = !n in
  if n = 0 then { total = 0; total_distinct = 0; buckets = [||] }
  else begin
    let per_bucket = max 1 ((n + buckets - 1) / buckets) in
    let out = ref [] in
    let r = ref 0 in
    while !r < d do
      let start = !r in
      let count = ref 0 in
      while !r < d && !count < per_bucket do
        count := !count + counts.(!r);
        incr r
      done;
      out :=
        { lo = values.(start); hi = values.(!r - 1); count = !count; distinct = !r - start }
        :: !out
    done;
    { total = n; total_distinct = d; buckets = Array.of_list (List.rev !out) }
  end

let build ?buckets values =
  let sorted = Array.copy values in
  Cddpd_util.Int_sort.sort sorted;
  let values, counts = Cddpd_util.Int_sort.runs sorted in
  of_counts ?buckets values counts

let of_buckets buckets =
  let buckets = Array.copy buckets in
  Array.iteri
    (fun i b ->
      if b.count <= 0 || b.distinct <= 0 || b.lo > b.hi || (i > 0 && b.lo <= buckets.(i - 1).hi)
      then invalid_arg "Histogram.of_buckets: malformed or unsorted bucket")
    buckets;
  {
    total = Array.fold_left (fun acc b -> acc + b.count) 0 buckets;
    total_distinct = Array.fold_left (fun acc b -> acc + b.distinct) 0 buckets;
    buckets;
  }

let n_values t = t.total

let n_distinct t = t.total_distinct

(* Fixed-width binary fields: injective without separators, and cheap to
   write (no printing). *)
let add_fingerprint_bytes buf t =
  let add i = Buffer.add_int64_le buf (Int64.of_int i) in
  add t.total;
  add t.total_distinct;
  add (Array.length t.buckets);
  Array.iter
    (fun b ->
      add b.lo;
      add b.hi;
      add b.count;
      add b.distinct)
    t.buckets

let min_value t =
  if Array.length t.buckets = 0 then None else Some t.buckets.(0).lo

let max_value t =
  let n = Array.length t.buckets in
  if n = 0 then None else Some t.buckets.(n - 1).hi

(* Index of the first bucket whose [hi] satisfies [reaches] (a predicate
   monotone over the sorted buckets), or [Array.length buckets]. *)
let first_bucket buckets reaches =
  let lo = ref 0 and hi = ref (Array.length buckets) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if reaches buckets.(mid).hi then hi := mid else lo := mid + 1
  done;
  !lo

(* Buckets are sorted and disjoint, so at most one bucket holds [v]: the
   first one whose [hi] reaches it.  A linear fold would add its share to
   [0.0] and skip every other bucket, so the result is bit-identical. *)
let selectivity_eq t v =
  if t.total = 0 then 0.0
  else
    let i = first_bucket t.buckets (fun hi -> v <= hi) in
    let matching =
      if i < Array.length t.buckets && t.buckets.(i).lo <= v then
        let b = t.buckets.(i) in
        float_of_int b.count /. float_of_int (max 1 b.distinct)
      else 0.0
    in
    let sel = matching /. float_of_int t.total in
    (* Never report exactly zero for an in-range probe: the optimizer should
       not believe lookups are free. *)
    if sel <= 0.0 then 0.5 /. float_of_int t.total else min 1.0 sel

(* Fraction of bucket [b] that intersects [lo, hi], assuming values spread
   uniformly over [b.lo, b.hi]. *)
let bucket_overlap b ~lo ~hi =
  let b_lo = float_of_int b.lo and b_hi = float_of_int b.hi in
  let lo = match lo with None -> b_lo | Some v -> float_of_int v in
  let hi = match hi with None -> b_hi | Some v -> float_of_int v in
  if hi < b_lo || lo > b_hi then 0.0
  else if Float.equal b_hi b_lo then 1.0
  else
    let clamped_lo = max lo b_lo and clamped_hi = min hi b_hi in
    (clamped_hi -. clamped_lo) /. (b_hi -. b_lo)

(* Only the contiguous run of buckets from the first one whose [hi]
   reaches [lo] to the last one whose [lo] is within [hi] can overlap the
   range (both tests on the floats [bucket_overlap] compares).  Every
   bucket outside the run adds exactly [+. 0.0] to the linear fold, so
   summing the run alone, in order, gives the bit-identical result. *)
let selectivity_range t ~lo ~hi =
  if t.total = 0 then 0.0
  else begin
    (match (lo, hi) with
    | Some l, Some h when l > h -> invalid_arg "Histogram.selectivity_range: lo > hi"
    | _ -> ());
    let n = Array.length t.buckets in
    let start =
      match lo with
      | None -> 0
      | Some l ->
          let l = float_of_int l in
          first_bucket t.buckets (fun b_hi -> not (float_of_int b_hi < l))
    in
    let within b =
      match hi with None -> true | Some h -> not (float_of_int h < float_of_int b.lo)
    in
    let matching = ref 0.0 in
    let i = ref start in
    while !i < n && within t.buckets.(!i) do
      let b = t.buckets.(!i) in
      matching := !matching +. (bucket_overlap b ~lo ~hi *. float_of_int b.count);
      incr i
    done;
    Float.max 0.0 (Float.min 1.0 (!matching /. float_of_int t.total))
  end

let buckets t = Array.copy t.buckets
