module Int_sort = Cddpd_util.Int_sort

(* A growable unboxed log of values. *)
type log = { mutable data : int array; mutable len : int }

type t = {
  mutable values : int array; (* strictly ascending *)
  mutable counts : int array; (* positive, parallel to [values] *)
  added : log; (* pending row-at-a-time insertions, unsorted *)
  removed : log; (* pending row-at-a-time deletions, unsorted *)
  mutable histogram : Histogram.t option; (* of [values]/[counts]; None after a change *)
}

let create () =
  {
    values = [||];
    counts = [||];
    added = { data = [||]; len = 0 };
    removed = { data = [||]; len = 0 };
    histogram = None;
  }

(* Sum two run lists (each strictly ascending, any signed counts), dropping
   zero sums, in one linear merge. *)
let merge av ac bv bc =
  let na = Array.length av and nb = Array.length bv in
  let values = Array.make (na + nb) 0 and counts = Array.make (na + nb) 0 in
  let o = ref 0 in
  let emit v c =
    if c <> 0 then begin
      values.(!o) <- v;
      counts.(!o) <- c;
      incr o
    end
  in
  let i = ref 0 and j = ref 0 in
  while !i < na || !j < nb do
    if !j >= nb || (!i < na && av.(!i) < bv.(!j)) then begin
      emit av.(!i) ac.(!i);
      incr i
    end
    else if !i >= na || bv.(!j) < av.(!i) then begin
      emit bv.(!j) bc.(!j);
      incr j
    end
    else begin
      emit av.(!i) (ac.(!i) + bc.(!j));
      incr i;
      incr j
    end
  done;
  if !o = na + nb then (values, counts) else (Array.sub values 0 !o, Array.sub counts 0 !o)

(* Fold a signed delta into the counts; a negative result means a value
   was removed more often than it was counted. *)
let apply t dv dc =
  if Array.length dv > 0 then begin
    let values, counts = merge t.values t.counts dv dc in
    if Array.exists (fun c -> c < 0) counts then
      invalid_arg "Value_counts: removed a value that is not counted";
    t.values <- values;
    t.counts <- counts;
    t.histogram <- None
  end

let drain log =
  let sorted = Array.sub log.data 0 log.len in
  log.len <- 0;
  Int_sort.sort sorted;
  Int_sort.runs sorted

let fold t =
  if t.added.len > 0 || t.removed.len > 0 then begin
    let av, ac = drain t.added in
    let rv, rc = drain t.removed in
    (* Net the two logs first: an UPDATE that rewrites a value with itself
       cancels here and leaves the counts (and the cached histogram)
       untouched. *)
    let dv, dc = merge av ac rv (Array.map (fun c -> -c) rc) in
    apply t dv dc
  end

(* Fold once the logs outgrow the counts, so a long row-at-a-time load
   keeps them bounded while each fold stays amortised O(1) per row. *)
let push t log v =
  if log.len = Array.length log.data then begin
    let data = Array.make (max 64 (2 * log.len)) 0 in
    Array.blit log.data 0 data 0 log.len;
    log.data <- data
  end;
  log.data.(log.len) <- v;
  log.len <- log.len + 1;
  if t.added.len + t.removed.len > max 1024 (Array.length t.values) then fold t

let add t v = push t t.added v

let remove t v = push t t.removed v

let add_batch t values =
  Int_sort.sort values;
  let bv, bc = Int_sort.runs values in
  apply t bv bc

let histogram t =
  fold t;
  match t.histogram with
  | Some h -> h
  | None ->
      let h = Histogram.of_counts t.values t.counts in
      t.histogram <- Some h;
      h
