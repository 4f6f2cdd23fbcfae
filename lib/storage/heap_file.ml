(* Slotted page layout:
     0  u16  slot count
     2  u16  free_end: offset one past the free region; record data occupies
             [free_end - data, Page.size) growing downward
     4  slot directory: per slot, u16 record offset + u16 record length
             (length 0 marks a deleted slot)
   A fresh page has slot count 0 and free_end = Page.size. *)

module Obs = Cddpd_obs

let m_pages_skipped = Obs.Registry.counter "heap_file.pages_skipped"

(* A page's equality synopsis ({!Synopsis}, keyed by field) over the
   leading Int fields of the records in slots [0, covered), built by
   [scan] from the page bytes it fetched anyway.  Records are only
   appended or tombstoned, so a hashed slot never changes and each slot
   is hashed once.  [prefix] is the fewest leading Int fields among the
   live records hashed ([max_int] while there are none): a field below it
   sits at its fixed offset in every live record of the page, so the
   synopsis decides exactly the fields below [prefix]. *)
type synopsis = { bits : Synopsis.t; mutable covered : int; mutable prefix : int }

type t = {
  pool : Buffer_pool.t;
  mutable pages : int list; (* reversed: head is the last page *)
  mutable page_count : int;
  mutable run : int array; (* the pages oldest first; stale while shorter than page_count *)
  mutable synopses : synopsis array; (* one per page of [run], same positions *)
  mutable live : int;
}

type rid = { page : int; slot : int }

let compare_rid a b =
  let c = compare a.page b.page in
  if c <> 0 then c else compare a.slot b.slot

let header_size = 4
let slot_size = 4

let create pool = { pool; pages = []; page_count = 0; run = [||]; synopses = [||]; live = 0 }

let slot_count page = Page.get_u16 page 0
let set_slot_count page n = Page.set_u16 page 0 n
let free_end page = Page.get_u16 page 2
let set_free_end page v = Page.set_u16 page 2 v

let slot_offset page i = Page.get_u16 page (header_size + (i * slot_size))
let slot_length page i = Page.get_u16 page (header_size + (i * slot_size) + 2)

let set_slot page i ~offset ~length =
  Page.set_u16 page (header_size + (i * slot_size)) offset;
  Page.set_u16 page (header_size + (i * slot_size) + 2) length

let free_space page =
  let slots_end = header_size + (slot_count page * slot_size) in
  free_end page - slots_end

let init_page page =
  set_slot_count page 0;
  set_free_end page Page.size

let max_record = Page.size - header_size - slot_size

let try_insert_in page data =
  let len = Bytes.length data in
  if free_space page < len + slot_size then None
  else begin
    let offset = free_end page - len in
    Page.set_bytes page ~pos:offset data;
    let slot = slot_count page in
    set_slot page slot ~offset ~length:len;
    set_slot_count page (slot + 1);
    set_free_end page offset;
    Some slot
  end

let insert t tuple =
  let data = Tuple.encode tuple in
  if Bytes.length data > max_record then
    invalid_arg "Heap_file.insert: tuple larger than a page";
  let insert_in_new_page () =
    let handle = Buffer_pool.allocate t.pool in
    let page = Buffer_pool.page handle in
    init_page page;
    let pid = Buffer_pool.page_id handle in
    t.pages <- pid :: t.pages;
    t.page_count <- t.page_count + 1;
    let slot =
      match try_insert_in page data with
      | Some slot -> slot
      | None -> assert false
    in
    Buffer_pool.mark_dirty handle;
    Buffer_pool.unpin t.pool handle;
    { page = pid; slot }
  in
  let rid =
    match t.pages with
    | [] -> insert_in_new_page ()
    | last :: _ -> (
        let handle = Buffer_pool.fetch t.pool last in
        let page = Buffer_pool.page handle in
        match try_insert_in page data with
        | Some slot ->
            Buffer_pool.mark_dirty handle;
            Buffer_pool.unpin t.pool handle;
            { page = last; slot }
        | None ->
            Buffer_pool.unpin t.pool handle;
            insert_in_new_page ())
  in
  t.live <- t.live + 1;
  rid

let with_page t pid f =
  let handle = Buffer_pool.fetch t.pool pid in
  let result =
    try f handle (Buffer_pool.page handle)
    with exn ->
      Buffer_pool.unpin t.pool handle;
      raise exn
  in
  Buffer_pool.unpin t.pool handle;
  result

(* -- the scan kernel ---------------------------------------------------------

   Unchecked little-endian reads for the kernel's inner loops.  A page's
   slot directory is bounds-checked once per page, and a record's reach
   ([Ranges.reach]) once per record before any range is read, so no read
   leaves the page. *)
external get16u : bytes -> int -> int = "%caml_bytes_get16u"
external get64u : bytes -> int -> int64 = "%caml_bytes_get64u"
external swap16 : int -> int = "%bswap16"
external swap64 : int64 -> int64 = "%bswap_int64"

let u16 buf i = if Sys.big_endian then swap16 (get16u buf i) else get16u buf i
let i64 buf i = Int64.to_int (if Sys.big_endian then swap64 (get64u buf i) else get64u buf i)

(* Whether the flattened (offset, lo, hi) triples [r] all hold for the
   record at [base].  Inlined into the page loop; the loop lives here and
   again in [Btree], not in [Ranges], because library modules are
   compiled without cross-module inlining in the default build, and a
   call per record costs about as much as the test itself. *)
let[@inline always] ranges_hold r buf base =
  let i = ref 0 and hold = ref true in
  while !hold && !i < Array.length r do
    let v = i64 buf (base + Array.unsafe_get r !i) in
    hold := v >= Array.unsafe_get r (!i + 1) && v <= Array.unsafe_get r (!i + 2);
    i := !i + 3
  done;
  !hold

let fetch_slice t rid ~ranges f =
  with_page t rid.page (fun _handle page ->
      if rid.slot < 0 || rid.slot >= slot_count page then
        invalid_arg "Heap_file.fetch: slot out of range";
      if slot_length page rid.slot > 0 then begin
        let buf = Page.to_bytes page and base = slot_offset page rid.slot in
        if base + Ranges.reach ranges > Bytes.length buf then
          invalid_arg "Heap_file: record shorter than its ranges";
        if ranges_hold (Ranges.triples ranges) buf base then f buf base
      end)

let fetch t rid =
  let tuple = ref None in
  fetch_slice t rid ~ranges:Ranges.none (fun buf base -> tuple := Some (Tuple.decode_at buf ~base));
  !tuple

let delete t rid =
  with_page t rid.page (fun handle page ->
      if rid.slot < 0 || rid.slot >= slot_count page then
        invalid_arg "Heap_file.delete: slot out of range";
      let len = slot_length page rid.slot in
      if len = 0 then false
      else begin
        set_slot page rid.slot ~offset:0 ~length:0;
        Buffer_pool.mark_dirty handle;
        t.live <- t.live - 1;
        true
      end)

(* -- equality synopses ------------------------------------------------------ *)

let fresh_synopsis () = { bits = Synopsis.create (); covered = 0; prefix = max_int }

(* Hash the slots appended since the last cover: [n] is the page's slot
   count, its directory already checked against the page. *)
let cover syn buf n =
  if syn.covered < n then begin
    let set field v = Synopsis.add syn.bits ~key:field v in
    for slot = syn.covered to n - 1 do
      let dir = header_size + (slot * slot_size) in
      if u16 buf (dir + 2) > 0 then
        syn.prefix <- Int.min syn.prefix (Tuple.int_prefix buf ~base:(u16 buf dir) set)
    done;
    syn.covered <- n
  end

(* -- full scans ------------------------------------------------------------- *)

(* Full scans go through the pool's sequential path over the page run
   (oldest first): scan-resistant eviction plus readahead.  The run (and
   the synopses beside it) is rebuilt only after the file grew, so a scan
   allocates nothing per page. *)
let scan_run t =
  if Array.length t.run <> t.page_count then begin
    let run = Array.make t.page_count (-1) in
    List.iteri (fun i pid -> run.(t.page_count - 1 - i) <- pid) t.pages;
    t.run <- run;
    let old = t.synopses in
    t.synopses <-
      Array.init t.page_count (fun i -> if i < Array.length old then old.(i) else fresh_synopsis ())
  end;
  t.run

(* The page's slot count, once its directory is known to fit the page. *)
let checked_slot_count buf =
  let n = Bytes.get_uint16_le buf 0 in
  if header_size + (n * slot_size) > Bytes.length buf then
    invalid_arg "Heap_file: slot directory overruns the page";
  n

(* One page of the scan kernel: the slot directory read inline, the
   ranges tested in place, the callback reached only by matches. *)
let scan_page buf n pid r reach f =
  let last_base = Bytes.length buf - reach in
  for slot = 0 to n - 1 do
    let dir = header_size + (slot * slot_size) in
    if u16 buf (dir + 2) > 0 then begin
      let base = u16 buf dir in
      if base > last_base then invalid_arg "Heap_file: record shorter than its ranges";
      if ranges_hold r buf base then f buf base pid slot
    end
  done

(* A page whose synopsis excludes an equality is still fetched (the same
   logical and physical I/O as a page scanned); only its record loop is
   skipped. *)
let scan t ~ranges f =
  let r = Ranges.triples ranges and reach = Ranges.reach ranges in
  let eq =
    if Ranges.has_equality ranges then Synopsis.equalities r ~key_of:Tuple.int_field_of_offset
    else [||]
  in
  let run = scan_run t in
  for pos = 0 to Array.length run - 1 do
    let handle = Buffer_pool.fetch_sequential t.pool ~run ~pos in
    match
      let buf = Page.to_bytes (Buffer_pool.page handle) in
      let n = checked_slot_count buf in
      let skip =
        Array.length eq > 0
        &&
        let syn = t.synopses.(pos) in
        cover syn buf n;
        Synopsis.excludes syn.bits eq ~below:syn.prefix
      in
      if skip then Obs.Counter.incr m_pages_skipped else scan_page buf n run.(pos) r reach f
    with
    | () -> Buffer_pool.unpin t.pool handle
    | exception exn ->
        Buffer_pool.unpin t.pool handle;
        raise exn
  done

let iter t f =
  scan t ~ranges:Ranges.none (fun buf base page slot ->
      f { page; slot } (Tuple.decode_at buf ~base))

let n_tuples t = t.live

let n_pages t = t.page_count
