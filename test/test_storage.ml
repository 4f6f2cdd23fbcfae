(* Tests for Cddpd_storage: Page, Disk, Buffer_pool, Tuple, Heap_file. *)

module Page = Cddpd_storage.Page
module Disk = Cddpd_storage.Disk
module Buffer_pool = Cddpd_storage.Buffer_pool
module Tuple = Cddpd_storage.Tuple
module Heap_file = Cddpd_storage.Heap_file

(* -- Page ------------------------------------------------------------------ *)

let test_page_int_roundtrip () =
  let p = Page.create () in
  Page.set_i64 p 0 (-123456789);
  Page.set_i64 p 8 max_int;
  Page.set_i32 p 16 (-42);
  Page.set_u16 p 20 65535;
  Page.set_u8 p 22 255;
  Alcotest.(check int) "i64 negative" (-123456789) (Page.get_i64 p 0);
  Alcotest.(check int) "i64 max" max_int (Page.get_i64 p 8);
  Alcotest.(check int) "i32" (-42) (Page.get_i32 p 16);
  Alcotest.(check int) "u16" 65535 (Page.get_u16 p 20);
  Alcotest.(check int) "u8" 255 (Page.get_u8 p 22)

let test_page_bounds () =
  let p = Page.create () in
  Alcotest.(check bool) "out of bounds raises" true
    (match Page.get_i64 p (Page.size - 4) with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_page_move_overlap () =
  let p = Page.create () in
  for i = 0 to 9 do
    Page.set_u8 p i i
  done;
  Page.move p ~src:0 ~dst:2 ~len:8;
  Alcotest.(check int) "overlapping move" 0 (Page.get_u8 p 2);
  Alcotest.(check int) "overlapping move end" 7 (Page.get_u8 p 9)

(* -- Disk ------------------------------------------------------------------ *)

let test_disk_alloc_rw () =
  let d = Disk.create () in
  let p0, page0 = Disk.allocate d in
  let p1, page1 = Disk.allocate d in
  Alcotest.(check int) "sequential ids" 0 p0;
  Alcotest.(check int) "sequential ids" 1 p1;
  Alcotest.(check int) "allocated zeroed" 0 (Page.get_i64 page1 0);
  let stats = Disk.stats d in
  Alcotest.(check int) "allocation reads nothing" 0 stats.Disk.reads;
  Page.set_i64 page1 0 99;
  Disk.write d p1;
  let out = Disk.read d p1 in
  Alcotest.(check bool) "a read hands out the stored page" true (out == page1);
  Alcotest.(check int) "roundtrip" 99 (Page.get_i64 out 0);
  Alcotest.(check int) "pages are distinct" 0 (Page.get_i64 page0 0);
  let stats = Disk.stats d in
  Alcotest.(check int) "reads counted" 1 stats.Disk.reads;
  Alcotest.(check int) "writes counted" 1 stats.Disk.writes;
  Alcotest.(check int) "allocated" 2 stats.Disk.allocated

let test_disk_unallocated () =
  let d = Disk.create () in
  Alcotest.(check bool) "unallocated read raises" true
    (match Disk.read d 0 with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "unallocated write raises" true
    (match Disk.write d 0 with
    | () -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check int) "nothing counted" 0 (Disk.stats d).Disk.reads

let test_disk_grows () =
  let d = Disk.create () in
  for _ = 1 to 1000 do
    ignore (Disk.allocate d)
  done;
  Alcotest.(check int) "grew to 1000 pages" 1000 (Disk.n_pages d)

(* A released id stays spent: the next allocation is a fresh id, a read
   of the released one raises and counts nothing, and a write of it
   still counts, as the write-back of a frame that aliased it does. *)
let test_disk_release () =
  let d = Disk.create () in
  let p0, _ = Disk.allocate d in
  let p1, page1 = Disk.allocate d in
  Page.set_i64 page1 0 7;
  Disk.release d p0;
  let stats = Disk.stats d in
  Alcotest.(check int) "released counted" 1 stats.Disk.released;
  Alcotest.(check int) "id kept" 2 stats.Disk.allocated;
  Alcotest.(check int) "id kept in n_pages" 2 (Disk.n_pages d);
  let p2, _ = Disk.allocate d in
  Alcotest.(check int) "next allocation is a fresh id" 2 p2;
  Alcotest.(check bool) "released read raises" true
    (match Disk.read d p0 with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check int) "refused read not counted" 0 (Disk.stats d).Disk.reads;
  Disk.write d p0;
  Alcotest.(check int) "write of a released id counts" 1 (Disk.stats d).Disk.writes;
  Alcotest.(check bool) "double release raises" true
    (match Disk.release d p0 with
    | () -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check int) "live page untouched" 7 (Page.get_i64 (Disk.read d p1) 0);
  (* Through a pool: release changes no frame, and the dirty frame's
     write-back is still counted when the clock evicts it. *)
  let pool = Buffer_pool.create ~capacity:1 d in
  let h = Buffer_pool.allocate pool in
  let pid = Buffer_pool.page_id h in
  Buffer_pool.unpin pool h;
  Buffer_pool.release pool pid;
  let writes = (Disk.stats d).Disk.writes in
  let h = Buffer_pool.fetch pool p1 in
  Buffer_pool.unpin pool h;
  Alcotest.(check int) "aliasing frame's write-back counted" (writes + 1)
    (Disk.stats d).Disk.writes;
  Alcotest.(check int) "two released" 2 (Disk.stats d).Disk.released

(* -- Buffer_pool ------------------------------------------------------------ *)

let test_pool_hit_miss () =
  let d = Disk.create () in
  let pid, _ = Disk.allocate d in
  let pool = Buffer_pool.create ~capacity:4 d in
  let h1 = Buffer_pool.fetch pool pid in
  Buffer_pool.unpin pool h1;
  let h2 = Buffer_pool.fetch pool pid in
  Buffer_pool.unpin pool h2;
  let s = Buffer_pool.stats pool in
  Alcotest.(check int) "one miss" 1 s.Buffer_pool.misses;
  Alcotest.(check int) "one hit" 1 s.Buffer_pool.hits

let test_pool_writeback_on_eviction () =
  let d = Disk.create () in
  let pids = List.init 8 (fun _ -> fst (Disk.allocate d)) in
  let pool = Buffer_pool.create ~capacity:2 d in
  let target = List.hd pids in
  let h = Buffer_pool.fetch pool target in
  Page.set_i64 (Buffer_pool.page h) 0 4242;
  Buffer_pool.mark_dirty h;
  Buffer_pool.unpin pool h;
  (* Touch enough other pages to force eviction of [target]; they are
     clean, so only [target]'s eviction counts a write. *)
  List.iter
    (fun pid ->
      if pid <> target then begin
        let h = Buffer_pool.fetch pool pid in
        Buffer_pool.unpin pool h
      end)
    pids;
  Alcotest.(check int) "one write-back, for the dirty page" 1 (Disk.stats d).Disk.writes;
  Alcotest.(check int) "dirty page written back" 4242 (Page.get_i64 (Disk.read d target) 0)

let test_pool_pinned_never_evicted () =
  let d = Disk.create () in
  let pids = List.init 8 (fun _ -> fst (Disk.allocate d)) in
  let pool = Buffer_pool.create ~capacity:2 d in
  let pinned = Buffer_pool.fetch pool (List.hd pids) in
  Page.set_i64 (Buffer_pool.page pinned) 0 7;
  (* Stream the rest through the other frame. *)
  List.iter
    (fun pid ->
      if pid <> List.hd pids then begin
        let h = Buffer_pool.fetch pool pid in
        Buffer_pool.unpin pool h
      end)
    pids;
  Alcotest.(check int) "pinned page intact" 7 (Page.get_i64 (Buffer_pool.page pinned) 0);
  Alcotest.(check int) "pinned page id stable" (List.hd pids) (Buffer_pool.page_id pinned);
  Buffer_pool.unpin pool pinned

let test_pool_all_pinned_fails () =
  let d = Disk.create () in
  let p0, _ = Disk.allocate d and p1, _ = Disk.allocate d and p2, _ = Disk.allocate d in
  let pool = Buffer_pool.create ~capacity:2 d in
  let h0 = Buffer_pool.fetch pool p0 in
  let h1 = Buffer_pool.fetch pool p1 in
  Alcotest.(check bool) "exhausted pool fails" true
    (match Buffer_pool.fetch pool p2 with
    | _ -> false
    | exception Failure _ -> true);
  Buffer_pool.unpin pool h0;
  Buffer_pool.unpin pool h1

let test_pool_double_unpin () =
  let d = Disk.create () in
  let pid, _ = Disk.allocate d in
  let pool = Buffer_pool.create ~capacity:2 d in
  let h = Buffer_pool.fetch pool pid in
  Buffer_pool.unpin pool h;
  Alcotest.(check bool) "double unpin raises" true
    (match Buffer_pool.unpin pool h with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_pool_allocate_no_read () =
  let d = Disk.create () in
  let pool = Buffer_pool.create ~capacity:2 d in
  let h = Buffer_pool.allocate pool in
  Buffer_pool.unpin pool h;
  Alcotest.(check int) "no disk read on allocate" 0 (Disk.stats d).Disk.reads

(* -- Buffer_pool: sequential scans ------------------------------------------- *)

(* Allocate [n] pages, stamping page i with value i so reads are
   checkable.  The stamps go into the stored pages directly: no I/O is
   counted. *)
let make_stamped_disk n =
  let d = Disk.create () in
  for i = 0 to n - 1 do
    let _, page = Disk.allocate d in
    Page.set_i64 page 0 i
  done;
  d

let test_pool_scan_cold_then_warm () =
  (* An 8-page scan in a 16-frame pool: the cold scan misses every page
     and reads each from disk once; the warm rescan hits every page and
     reads nothing. *)
  let n = 8 in
  let d = make_stamped_disk n in
  let pool = Buffer_pool.create ~capacity:16 d in
  let scan () =
    for pid = 0 to n - 1 do
      let h = Buffer_pool.fetch_sequential pool pid in
      Alcotest.(check int) "page content" pid (Page.get_i64 (Buffer_pool.page h) 0);
      Buffer_pool.unpin pool h
    done
  in
  scan ();
  let cold = Buffer_pool.stats pool in
  Alcotest.(check int) "cold: all misses" n cold.Buffer_pool.misses;
  Alcotest.(check int) "cold: no hits" 0 cold.Buffer_pool.hits;
  Alcotest.(check int) "cold: one disk read per page" n (Disk.stats d).Disk.reads;
  scan ();
  let warm = Buffer_pool.stats pool in
  Alcotest.(check int) "warm: no new misses" n warm.Buffer_pool.misses;
  Alcotest.(check int) "warm: all hits" n warm.Buffer_pool.hits;
  Alcotest.(check int) "warm: no disk reads" n (Disk.stats d).Disk.reads;
  Alcotest.(check int) "scan_fetches" (2 * n) warm.Buffer_pool.scan_fetches

let test_pool_scan_resistance () =
  (* A referenced two-page working set survives a 100-page scan through
     an 8-frame pool: sequential fetches recycle their own (unreferenced)
     trail instead of clearing the working set's reference bits. *)
  let total = 102 in
  let d = make_stamped_disk total in
  let pool = Buffer_pool.create ~capacity:8 d in
  let hot0 = 100 and hot1 = 101 in
  Buffer_pool.unpin pool (Buffer_pool.fetch pool hot0);
  Buffer_pool.unpin pool (Buffer_pool.fetch pool hot1);
  for pid = 0 to 99 do
    let h = Buffer_pool.fetch_sequential pool pid in
    Alcotest.(check int) "scan content" pid (Page.get_i64 (Buffer_pool.page h) 0);
    Buffer_pool.unpin pool h
  done;
  let before = Buffer_pool.stats pool in
  Buffer_pool.unpin pool (Buffer_pool.fetch pool hot0);
  Buffer_pool.unpin pool (Buffer_pool.fetch pool hot1);
  let after = Buffer_pool.stats pool in
  Alcotest.(check int) "working set still resident (no new misses)"
    before.Buffer_pool.misses after.Buffer_pool.misses;
  Alcotest.(check int) "working set hits" (before.Buffer_pool.hits + 2)
    after.Buffer_pool.hits

(* The shape of a full scan of a table larger than the pool while an
   index's pages stay hot: 24 frames and a referenced working set of 19
   pages, so only 5 frames are spare when the 52-page scan starts.  The
   scan recycles those 5 frames: every page is one miss and one disk
   read, and the working set's reference bits survive. *)
let test_pool_small_pool_scan () =
  let scan_pages = 52 and hot = 19 and cold = 5 in
  let d = make_stamped_disk (scan_pages + hot + cold) in
  let pool = Buffer_pool.create ~capacity:24 d in
  let hot_pids = List.init hot (fun i -> scan_pages + i) in
  let touch pid = Buffer_pool.unpin pool (Buffer_pool.fetch pool pid) in
  List.iter touch hot_pids;
  let reads_before = (Disk.stats d).Disk.reads and before = Buffer_pool.stats pool in
  for pid = 0 to scan_pages - 1 do
    let h = Buffer_pool.fetch_sequential pool pid in
    Alcotest.(check int) "scan content" pid (Page.get_i64 (Buffer_pool.page h) 0);
    Buffer_pool.unpin pool h
  done;
  let after = Buffer_pool.stats pool in
  let reads = (Disk.stats d).Disk.reads - reads_before in
  Alcotest.(check int) "each page read from disk once" scan_pages reads;
  Alcotest.(check int) "disk reads = misses" reads
    (after.Buffer_pool.misses - before.Buffer_pool.misses);
  Alcotest.(check int) "logical I/O: one access per page" scan_pages
    (after.Buffer_pool.hits + after.Buffer_pool.misses - before.Buffer_pool.hits
   - before.Buffer_pool.misses);
  (* Reference bits survived: the clock sweep of [cold] ordinary misses
     takes the scan's unreferenced trail, so every hot page stays. *)
  List.iter touch (List.init cold (fun i -> scan_pages + hot + i));
  let misses = (Buffer_pool.stats pool).Buffer_pool.misses in
  List.iter touch hot_pids;
  Alcotest.(check int) "working set still resident" misses
    (Buffer_pool.stats pool).Buffer_pool.misses

let test_pool_memo_same_page () =
  (* Consecutive fetches of the same page go through the one-entry memo:
     still one hit each, correct pin accounting. *)
  let d = make_stamped_disk 4 in
  let pool = Buffer_pool.create ~capacity:4 d in
  let h1 = Buffer_pool.fetch_sequential pool 2 in
  let h2 = Buffer_pool.fetch_sequential pool 2 in
  Alcotest.(check int) "same frame content" 2 (Page.get_i64 (Buffer_pool.page h2) 0);
  Buffer_pool.unpin pool h1;
  Buffer_pool.unpin pool h2;
  let s = Buffer_pool.stats pool in
  Alcotest.(check int) "one miss" 1 s.Buffer_pool.misses;
  Alcotest.(check int) "one memo hit" 1 s.Buffer_pool.hits

let test_pool_memo_survives_eviction () =
  (* Capacity-1 pool: the single frame is reassigned on every fetch of a
     new page, so the memo must never serve a stale frame. *)
  let d = make_stamped_disk 3 in
  let pool = Buffer_pool.create ~capacity:1 d in
  let check pid =
    let h = Buffer_pool.fetch_sequential pool pid in
    Alcotest.(check int)
      (Printf.sprintf "page %d content" pid)
      pid
      (Page.get_i64 (Buffer_pool.page h) 0);
    Buffer_pool.unpin pool h
  in
  check 0;
  check 1;
  (* Back to page 0: the memo points at a frame now holding page 1 and
     must be bypassed. *)
  check 0;
  check 2;
  let s = Buffer_pool.stats pool in
  Alcotest.(check int) "every fetch missed" 4 s.Buffer_pool.misses;
  Alcotest.(check int) "no stale hits" 0 s.Buffer_pool.hits

let test_pool_heap_scan_uses_sequential_path () =
  (* Heap_file full scans go through fetch_sequential. *)
  let d = Disk.create () in
  let pool = Buffer_pool.create ~capacity:64 d in
  let heap = Heap_file.create pool in
  for i = 0 to 999 do
    ignore (Heap_file.insert heap [| Tuple.Int i |])
  done;
  let before = (Buffer_pool.stats pool).Buffer_pool.scan_fetches in
  let seen = ref 0 in
  Heap_file.iter heap (fun _ _ -> incr seen);
  Alcotest.(check int) "all rows" 1000 !seen;
  Alcotest.(check int) "scan fetches = heap pages" (Heap_file.n_pages heap)
    ((Buffer_pool.stats pool).Buffer_pool.scan_fetches - before)

(* -- Tuple ------------------------------------------------------------------ *)

let tuple_testable = Alcotest.testable (fun ppf t -> Tuple.pp ppf t) Tuple.equal

let test_tuple_roundtrip () =
  let t = [| Tuple.Int 42; Tuple.Text "hello"; Tuple.Int (-1); Tuple.Text "" |] in
  Alcotest.check tuple_testable "roundtrip" t (Tuple.decode (Tuple.encode t))

let test_tuple_empty () =
  Alcotest.check tuple_testable "empty tuple" [||] (Tuple.decode (Tuple.encode [||]))

let test_tuple_get_field () =
  let t = [| Tuple.Int 1; Tuple.Text "xy"; Tuple.Int 3 |] in
  let buf = Tuple.encode t in
  Alcotest.(check bool) "field 0" true (Tuple.get_field buf 0 = Tuple.Int 1);
  Alcotest.(check bool) "field 1" true (Tuple.get_field buf 1 = Tuple.Text "xy");
  Alcotest.(check bool) "field 2" true (Tuple.get_field buf 2 = Tuple.Int 3);
  Alcotest.(check int) "field_count" 3 (Tuple.field_count buf)

let test_tuple_get_field_out_of_range () =
  let buf = Tuple.encode [| Tuple.Int 1 |] in
  Alcotest.(check bool) "raises" true
    (match Tuple.get_field buf 1 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_tuple_decode_malformed () =
  Alcotest.(check bool) "garbage rejected" true
    (match Tuple.decode (Bytes.make 3 '\xff') with
    | _ -> false
    | exception Invalid_argument _ -> true)

let value_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> Tuple.Int i) int;
        map (fun s -> Tuple.Text s) (string_size (int_bound 30));
      ])

let tuple_gen = QCheck.Gen.(map Array.of_list (list_size (int_bound 8) value_gen))

let tuple_arbitrary = QCheck.make ~print:Tuple.to_string tuple_gen

let tuple_roundtrip_prop =
  QCheck.Test.make ~name:"tuple encode/decode roundtrip" ~count:500 tuple_arbitrary
    (fun t -> Tuple.equal t (Tuple.decode (Tuple.encode t)))

let tuple_get_field_prop =
  QCheck.Test.make ~name:"get_field agrees with decode" ~count:500 tuple_arbitrary
    (fun t ->
      let buf = Tuple.encode t in
      let decoded = Tuple.decode buf in
      let ok = ref true in
      Array.iteri (fun i v -> if Tuple.get_field buf i <> v then ok := false) decoded;
      !ok)

let tuple_encoded_size_prop =
  QCheck.Test.make ~name:"encoded_size matches encode" ~count:500 tuple_arbitrary
    (fun t -> Tuple.encoded_size t = Bytes.length (Tuple.encode t))

(* -- Heap_file --------------------------------------------------------------- *)

let make_heap () =
  let d = Disk.create () in
  let pool = Buffer_pool.create ~capacity:64 d in
  Heap_file.create pool

let test_heap_insert_fetch () =
  let heap = make_heap () in
  let t1 = [| Tuple.Int 1; Tuple.Text "one" |] in
  let t2 = [| Tuple.Int 2; Tuple.Text "two" |] in
  let r1 = Heap_file.insert heap t1 in
  let r2 = Heap_file.insert heap t2 in
  Alcotest.(check (option tuple_testable)) "fetch r1" (Some t1) (Heap_file.fetch heap r1);
  Alcotest.(check (option tuple_testable)) "fetch r2" (Some t2) (Heap_file.fetch heap r2);
  Alcotest.(check int) "count" 2 (Heap_file.n_tuples heap)

let test_heap_delete () =
  let heap = make_heap () in
  let rid = Heap_file.insert heap [| Tuple.Int 1 |] in
  Alcotest.(check bool) "delete live" true (Heap_file.delete heap rid);
  Alcotest.(check bool) "delete again" false (Heap_file.delete heap rid);
  Alcotest.(check (option tuple_testable)) "fetch deleted" None (Heap_file.fetch heap rid);
  Alcotest.(check int) "count" 0 (Heap_file.n_tuples heap)

let test_heap_multi_page () =
  let heap = make_heap () in
  let n = 2000 in
  let rids =
    List.init n (fun i ->
        Heap_file.insert heap [| Tuple.Int i; Tuple.Text (string_of_int i) |])
  in
  Alcotest.(check bool) "spans several pages" true (Heap_file.n_pages heap > 1);
  List.iteri
    (fun i rid ->
      match Heap_file.fetch heap rid with
      | Some t when t.(0) = Tuple.Int i -> ()
      | Some _ | None -> Alcotest.failf "tuple %d corrupted" i)
    rids;
  let seen = ref 0 in
  Heap_file.iter heap (fun _ _ -> incr seen);
  Alcotest.(check int) "iter sees all" n !seen

let test_heap_iter_order_matches_insert () =
  let heap = make_heap () in
  let n = 500 in
  for i = 0 to n - 1 do
    ignore (Heap_file.insert heap [| Tuple.Int i |])
  done;
  let seen = ref [] in
  Heap_file.iter heap (fun _ t -> seen := Tuple.int_exn t.(0) :: !seen);
  Alcotest.(check (list int)) "storage order = insert order"
    (List.init n (fun i -> i))
    (List.rev !seen)

let test_heap_scan_kernel () =
  let heap = make_heap () in
  let rids =
    Array.init 1000 (fun i -> Heap_file.insert heap [| Tuple.Int i; Tuple.Int (i * 2) |])
  in
  ignore (Heap_file.delete heap rids.(40));
  (* field 1 in [60, 100]: rows 30..50, minus the deleted row 40 *)
  let ranges = Cddpd_storage.Ranges.of_list [ (Tuple.int_field_offset 1, 60, 100) ] in
  let seen = ref [] in
  Heap_file.scan heap ~ranges (fun buf base page slot ->
      let row = Tuple.int_exn (Tuple.get_field_at buf ~base 0) in
      Alcotest.(check bool) "rid is the row's" true
        (Heap_file.compare_rid { Heap_file.page; slot } rids.(row) = 0);
      seen := row :: !seen);
  Alcotest.(check (list int)) "matches in storage order"
    (List.filter (fun i -> i <> 40) (List.init 21 (fun i -> 30 + i)))
    (List.rev !seen);
  let all = ref 0 in
  Heap_file.scan heap ~ranges:Cddpd_storage.Ranges.none (fun _ _ _ _ -> incr all);
  Alcotest.(check int) "no ranges: every live row" 999 !all;
  let empty = Cddpd_storage.Ranges.of_list [ (Tuple.int_field_offset 0, max_int, min_int) ] in
  Heap_file.scan heap ~ranges:empty (fun _ _ _ _ -> Alcotest.fail "empty range matched")

let test_heap_oversize_tuple () =
  let heap = make_heap () in
  let big = [| Tuple.Text (String.make 5000 'x') |] in
  Alcotest.(check bool) "oversize rejected" true
    (match Heap_file.insert heap big with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* Model-based property: a heap file behaves like a growing list with
   deletion flags. *)
let heap_model_prop =
  QCheck.Test.make ~name:"heap file vs reference model" ~count:60
    QCheck.(list (pair (int_bound 1000) bool))
    (fun ops ->
      let heap = make_heap () in
      let model = Hashtbl.create 16 in
      let rids = ref [] in
      List.iter
        (fun (v, delete_one) ->
          let tuple = [| Tuple.Int v |] in
          let rid = Heap_file.insert heap tuple in
          Hashtbl.replace model rid tuple;
          rids := rid :: !rids;
          if delete_one then
            match !rids with
            | victim :: _ when Hashtbl.mem model victim ->
                ignore (Heap_file.delete heap victim);
                Hashtbl.remove model victim
            | _ -> ())
        ops;
      Hashtbl.fold
        (fun rid expected acc ->
          acc
          &&
          match Heap_file.fetch heap rid with
          | Some t -> Tuple.equal t expected
          | None -> false)
        model true
      && Heap_file.n_tuples heap = Hashtbl.length model)

(* -- Heap_file: equality synopses ---------------------------------------------- *)

(* A scan with ranges skips a page's record loop when the page's synopsis
   proves no record can match.  Pinned against [Naive.heap_scan] (the scan
   with no ranges, which never skips, testing each triple on the raw
   bytes) on a twin heap that receives the same operations: the same
   records in the same order, and the same pool and disk counter deltas
   (a skipped page is still fetched).  Tables are all-int or carry one
   text column at a random position, so the leading run of Int fields
   varies; operations come in batches between scans, so pages are scanned
   part-filled and extended later. *)

type heap_op = Ins of Tuple.t | Del of int | Upd of int * Tuple.t

(* A range's [lo]: a literal, the value the [k]-th live record holds at
   the range's offset (whatever bytes lie there), or a distinct value
   sharing that value's synopsis bit. *)
type bound = Lit of int | Held of int | Collide of int

type range_spec = { field : int; shift : int; bound : bound; width : int }

type synopsis_case = {
  ncols : int;
  text_at : int option;
  batches : (heap_op list * range_spec list) list;
}

let synopsis_case_gen =
  let open QCheck.Gen in
  let* ncols = int_range 2 6 in
  let* text_at = opt (int_bound (ncols - 1)) in
  let* vmax = oneofl [ 3; 12; 60 ] in
  let value = frequency [ (9, int_bound vmax); (1, int) ] in
  let row =
    let+ text = string_size ~gen:printable (int_bound 12) and+ ints = array_repeat ncols value in
    Array.mapi (fun i v -> if Some i = text_at then Tuple.Text text else Tuple.Int v) ints
  in
  let op =
    frequency
      [
        (6, map (fun r -> Ins r) row);
        (1, map (fun k -> Del k) nat);
        (1, map2 (fun k r -> Upd (k, r)) nat row);
      ]
  in
  let range =
    (* A misaligned offset, or field [ncols - 1], could read past a short
       record at the page's end, where the kernel raises; stay inside. *)
    let* shift = frequency [ (6, return 0); (1, int_range 1 3) ] in
    let last = if shift = 0 && text_at = None then ncols - 1 else ncols - 2 in
    let* field = int_bound last in
    let* bound =
      frequency
        [
          (2, map (fun v -> Lit v) value);
          (3, map (fun k -> Held k) nat);
          (1, map (fun k -> Collide k) nat);
        ]
    in
    let+ width = frequency [ (6, return 0); (2, int_bound 8); (1, return (-1)) ] in
    { field; shift; bound; width }
  in
  let batch = pair (list_size (int_range 0 120) op) (list_size (int_range 1 3) range) in
  let+ batches = list_size (int_range 1 6) batch in
  { ncols; text_at; batches }

let print_synopsis_case c =
  Printf.sprintf "ncols=%d text_at=%s batches=%d [%s]" c.ncols
    (match c.text_at with Some p -> string_of_int p | None -> "-")
    (List.length c.batches)
    (String.concat "; "
       (List.map
          (fun (ops, ranges) ->
            Printf.sprintf "%d ops, ranges %s" (List.length ops)
              (String.concat ","
                 (List.map
                    (fun r ->
                      Printf.sprintf "(f%d+%d %s w%d)" r.field r.shift
                        (match r.bound with
                        | Lit v -> string_of_int v
                        | Held k -> Printf.sprintf "held%d" k
                        | Collide k -> Printf.sprintf "collide%d" k)
                        r.width)
                    ranges)))
          c.batches))

(* The 64-bit integer a scan reads at [off] of the record [tuple]. *)
let raw_at tuple off =
  let buf = Tuple.encode tuple in
  if off + 8 <= Bytes.length buf then Int64.to_int (Bytes.get_int64_le buf off) else 0

let colliding ~field v =
  let bit = Cddpd_storage.Synopsis.bit ~key:field v in
  let rec search u = if Cddpd_storage.Synopsis.bit ~key:field u = bit then u else search (u + 1) in
  search (v + 1)

let synopsis_scan_prop =
  QCheck.Test.make ~name:"synopsis scan = naive scan" ~count:200
    (QCheck.make ~print:print_synopsis_case synopsis_case_gen)
    (fun c ->
      let twin () =
        let d = Disk.create () in
        let pool = Buffer_pool.create ~capacity:4 d in
        (d, pool, Heap_file.create pool)
      in
      let disk_a, pool_a, heap_a = twin () and disk_b, pool_b, heap_b = twin () in
      (* live records in storage order, as the model *)
      let live = ref [] in
      let apply op =
        let insert tuple =
          let rid = Heap_file.insert heap_a tuple in
          ignore (Heap_file.insert heap_b tuple);
          live := !live @ [ (rid, tuple) ]
        in
        let delete k =
          match !live with
          | [] -> ()
          | l ->
              let rid, _ = List.nth l (k mod List.length l) in
              ignore (Heap_file.delete heap_a rid);
              ignore (Heap_file.delete heap_b rid);
              live := List.filter (fun (r, _) -> Heap_file.compare_rid r rid <> 0) l
        in
        match op with
        | Ins t -> insert t
        | Del k -> delete k
        | Upd (k, t) ->
            delete k;
            insert t
      in
      let resolve r =
        let off = Tuple.int_field_offset r.field + r.shift in
        let held k =
          match !live with [] -> 0 | l -> raw_at (snd (List.nth l (k mod List.length l))) off
        in
        let lo =
          match r.bound with
          | Lit v -> v
          | Held k -> held k
          | Collide k -> colliding ~field:r.field (held k)
        in
        (off, lo, lo + r.width)
      in
      let deltas pool disk f =
        let before = Buffer_pool.stats pool and reads = Disk.reads disk in
        let result = f () in
        (result, (before, Buffer_pool.stats pool), Disk.reads disk - reads)
      in
      List.for_all
        (fun (ops, specs) ->
          List.iter apply ops;
          let triples = List.map resolve specs in
          let got, stats_a, reads_a =
            deltas pool_a disk_a (fun () ->
                let out = ref [] in
                Heap_file.scan heap_a ~ranges:(Cddpd_storage.Ranges.of_list triples)
                  (fun buf base page slot -> out := (page, slot, Tuple.decode_at buf ~base) :: !out);
                List.rev !out)
          in
          let naive, stats_b, reads_b = deltas pool_b disk_b (fun () -> Naive.heap_scan heap_b triples) in
          let model =
            List.filter_map
              (fun ((rid : Heap_file.rid), tuple) ->
                if List.for_all (fun (off, lo, hi) -> let v = raw_at tuple off in lo <= v && v <= hi) triples
                then Some (rid.Heap_file.page, rid.Heap_file.slot, tuple)
                else None)
              !live
          in
          let same = List.equal (fun (p, s, t) (p', s', t') -> p = p' && s = s' && Tuple.equal t t') in
          let delta (before, after) =
            Buffer_pool.
              ( after.hits - before.hits,
                after.misses - before.misses,
                after.evictions - before.evictions,
                after.scan_fetches - before.scan_fetches )
          in
          same got naive && same naive model
          && delta stats_a = delta stats_b
          && reads_a = reads_b)
        c.batches)

let test_synopsis_skips_pages () =
  (* Field 1 holds i / 100: each value sits on one or two of the ~12
     pages, so a scan for one of them skips most pages; a skipped page is
     still fetched, so the fetch count is the page count. *)
  let heap = make_heap () in
  for i = 0 to 1999 do
    ignore (Heap_file.insert heap [| Tuple.Int i; Tuple.Int (i / 100) |])
  done;
  let skipped = Cddpd_obs.Registry.counter "heap_file.pages_skipped" in
  let scan triples =
    let seen = ref 0 in
    let before = Cddpd_obs.Counter.value skipped in
    Cddpd_obs.Registry.with_enabled (fun () ->
        Heap_file.scan heap ~ranges:(Cddpd_storage.Ranges.of_list triples) (fun _ _ _ _ -> incr seen));
    (!seen, Cddpd_obs.Counter.value skipped - before)
  in
  let pages = Heap_file.n_pages heap in
  let seen, skipped_pages = scan [ (Tuple.int_field_offset 1, 7, 7) ] in
  Alcotest.(check int) "matches" 100 seen;
  Alcotest.(check bool)
    (Printf.sprintf "most of %d pages skipped (%d)" pages skipped_pages)
    true
    (skipped_pages >= pages / 2 && skipped_pages < pages);
  let seen, skipped_pages = scan [ (Tuple.int_field_offset 1, 7, 8) ] in
  Alcotest.(check int) "a range is no equality: nothing skipped" 200 seen;
  Alcotest.(check int) "no skips" 0 skipped_pages

let () =
  Alcotest.run "storage"
    [
      ( "page",
        [
          Alcotest.test_case "int roundtrips" `Quick test_page_int_roundtrip;
          Alcotest.test_case "bounds checked" `Quick test_page_bounds;
          Alcotest.test_case "overlapping move" `Quick test_page_move_overlap;
        ] );
      ( "disk",
        [
          Alcotest.test_case "allocate/read/write" `Quick test_disk_alloc_rw;
          Alcotest.test_case "unallocated access" `Quick test_disk_unallocated;
          Alcotest.test_case "grows" `Quick test_disk_grows;
          Alcotest.test_case "release keeps the id" `Quick test_disk_release;
        ] );
      ( "buffer_pool",
        [
          Alcotest.test_case "hit/miss accounting" `Quick test_pool_hit_miss;
          Alcotest.test_case "dirty write-back on eviction" `Quick
            test_pool_writeback_on_eviction;
          Alcotest.test_case "pinned never evicted" `Quick test_pool_pinned_never_evicted;
          Alcotest.test_case "all pinned fails" `Quick test_pool_all_pinned_fails;
          Alcotest.test_case "double unpin" `Quick test_pool_double_unpin;
          Alcotest.test_case "allocate reads nothing" `Quick test_pool_allocate_no_read;
          Alcotest.test_case "cold then warm scan" `Quick test_pool_scan_cold_then_warm;
          Alcotest.test_case "scan resistance" `Quick test_pool_scan_resistance;
          Alcotest.test_case "small-pool scan" `Quick test_pool_small_pool_scan;
          Alcotest.test_case "memo same-page fetches" `Quick test_pool_memo_same_page;
          Alcotest.test_case "memo survives eviction" `Quick
            test_pool_memo_survives_eviction;
          Alcotest.test_case "heap scan uses sequential path" `Quick
            test_pool_heap_scan_uses_sequential_path;
        ] );
      ( "tuple",
        [
          Alcotest.test_case "roundtrip" `Quick test_tuple_roundtrip;
          Alcotest.test_case "empty" `Quick test_tuple_empty;
          Alcotest.test_case "get_field" `Quick test_tuple_get_field;
          Alcotest.test_case "get_field out of range" `Quick
            test_tuple_get_field_out_of_range;
          Alcotest.test_case "malformed rejected" `Quick test_tuple_decode_malformed;
          QCheck_alcotest.to_alcotest tuple_roundtrip_prop;
          QCheck_alcotest.to_alcotest tuple_get_field_prop;
          QCheck_alcotest.to_alcotest tuple_encoded_size_prop;
        ] );
      ( "heap_file",
        [
          Alcotest.test_case "insert/fetch" `Quick test_heap_insert_fetch;
          Alcotest.test_case "delete" `Quick test_heap_delete;
          Alcotest.test_case "multi-page" `Quick test_heap_multi_page;
          Alcotest.test_case "iter order" `Quick test_heap_iter_order_matches_insert;
          Alcotest.test_case "scan kernel" `Quick test_heap_scan_kernel;
          Alcotest.test_case "oversize tuple" `Quick test_heap_oversize_tuple;
          QCheck_alcotest.to_alcotest heap_model_prop;
          Alcotest.test_case "synopsis skips pages" `Quick test_synopsis_skips_pages;
          QCheck_alcotest.to_alcotest synopsis_scan_prop;
        ] );
    ]
