(* B+-tree tests: unit cases plus model-based properties against a
   reference Set. *)

module Page = Cddpd_storage.Page
module Disk = Cddpd_storage.Disk
module Buffer_pool = Cddpd_storage.Buffer_pool
module Btree = Cddpd_storage.Btree

let make_pool ?(capacity = 512) () = Buffer_pool.create ~capacity (Disk.create ())

module Key_set = Set.Make (struct
  type t = int array

  let compare = compare
end)

let collect_all tree =
  let out = ref [] in
  Btree.iter_all tree (fun k -> out := Array.copy k :: !out);
  List.rev !out

let collect_range tree ~lo ~hi =
  let out = ref [] in
  Btree.iter_range tree ~lo ~hi (fun k -> out := Array.copy k :: !out);
  List.rev !out

(* -- unit tests -------------------------------------------------------------- *)

let test_empty_tree () =
  let tree = Btree.create (make_pool ()) ~key_len:1 in
  Alcotest.(check int) "no entries" 0 (Btree.n_entries tree);
  Alcotest.(check int) "height 1" 1 (Btree.height tree);
  Alcotest.(check bool) "mem" false (Btree.mem tree [| 5 |]);
  Alcotest.(check (list (array int))) "iter_all" [] (collect_all tree)

let test_insert_mem () =
  let tree = Btree.create (make_pool ()) ~key_len:1 in
  Btree.insert tree [| 3 |];
  Btree.insert tree [| 1 |];
  Btree.insert tree [| 2 |];
  Alcotest.(check bool) "mem 1" true (Btree.mem tree [| 1 |]);
  Alcotest.(check bool) "mem 4" false (Btree.mem tree [| 4 |]);
  Alcotest.(check int) "count" 3 (Btree.n_entries tree)

let test_insert_duplicate () =
  let tree = Btree.create (make_pool ()) ~key_len:1 in
  Btree.insert tree [| 7 |];
  Btree.insert tree [| 7 |];
  Alcotest.(check int) "duplicate is no-op" 1 (Btree.n_entries tree)

let test_sorted_iteration () =
  let tree = Btree.create (make_pool ()) ~key_len:1 in
  List.iter (fun v -> Btree.insert tree [| v |]) [ 5; 3; 9; 1; 7 ];
  Alcotest.(check (list (array int))) "sorted"
    [ [| 1 |]; [| 3 |]; [| 5 |]; [| 7 |]; [| 9 |] ]
    (collect_all tree)

let test_many_inserts_split () =
  let tree = Btree.create (make_pool ()) ~key_len:2 in
  let n = 20_000 in
  for i = 0 to n - 1 do
    (* A scrambled but collision-free order. *)
    Btree.insert tree [| (i * 7919) mod n; i |]
  done;
  Alcotest.(check int) "all entries" n (Btree.n_entries tree);
  Alcotest.(check bool) "height grew" true (Btree.height tree >= 2);
  Alcotest.(check bool) "many pages" true (Btree.n_pages tree > 50);
  (* Iteration is fully sorted. *)
  let prev = ref [| min_int; min_int |] in
  let sorted = ref true in
  Btree.iter_all tree (fun k ->
      if compare !prev k >= 0 then sorted := false;
      prev := Array.copy k);
  Alcotest.(check bool) "iteration sorted" true !sorted

let test_descending_inserts () =
  let tree = Btree.create (make_pool ()) ~key_len:1 in
  for i = 5000 downto 1 do
    Btree.insert tree [| i |]
  done;
  Alcotest.(check int) "all there" 5000 (Btree.n_entries tree);
  Alcotest.(check bool) "first found" true (Btree.mem tree [| 1 |]);
  Alcotest.(check bool) "last found" true (Btree.mem tree [| 5000 |])

let test_range_basic () =
  let tree = Btree.create (make_pool ()) ~key_len:1 in
  for i = 0 to 99 do
    Btree.insert tree [| i * 2 |]
  done;
  Alcotest.(check (list (array int))) "inclusive range"
    [ [| 10 |]; [| 12 |]; [| 14 |] ]
    (collect_range tree ~lo:[| 9 |] ~hi:[| 14 |]);
  Alcotest.(check (list (array int))) "empty range" []
    (collect_range tree ~lo:[| 15 |] ~hi:[| 15 |])

let test_range_reversed_bounds () =
  let tree = Btree.create (make_pool ()) ~key_len:1 in
  Btree.insert tree [| 1 |];
  Alcotest.(check (list (array int))) "lo > hi yields nothing" []
    (collect_range tree ~lo:[| 5 |] ~hi:[| 2 |])

let test_prefix_scan () =
  let tree = Btree.create (make_pool ()) ~key_len:2 in
  List.iter (Btree.insert tree)
    [ [| 1; 10 |]; [| 1; 20 |]; [| 2; 5 |]; [| 2; 6 |]; [| 3; 1 |] ];
  let out = ref [] in
  Btree.iter_prefix tree ~prefix:[| 2 |] (fun k -> out := Array.copy k :: !out);
  Alcotest.(check (list (array int))) "prefix 2" [ [| 2; 5 |]; [| 2; 6 |] ] (List.rev !out)

let test_delete () =
  let tree = Btree.create (make_pool ()) ~key_len:1 in
  List.iter (fun v -> Btree.insert tree [| v |]) [ 1; 2; 3 ];
  Alcotest.(check bool) "delete present" true (Btree.delete tree [| 2 |]);
  Alcotest.(check bool) "delete absent" false (Btree.delete tree [| 2 |]);
  Alcotest.(check bool) "gone" false (Btree.mem tree [| 2 |]);
  Alcotest.(check (list (array int))) "others intact" [ [| 1 |]; [| 3 |] ]
    (collect_all tree);
  Alcotest.(check int) "count" 2 (Btree.n_entries tree)

let test_delete_heavy () =
  let tree = Btree.create (make_pool ()) ~key_len:1 in
  let n = 5000 in
  for i = 0 to n - 1 do
    Btree.insert tree [| i |]
  done;
  for i = 0 to n - 1 do
    if i mod 2 = 0 then ignore (Btree.delete tree [| i |])
  done;
  Alcotest.(check int) "half deleted" (n / 2) (Btree.n_entries tree);
  for i = 0 to n - 1 do
    let expected = i mod 2 = 1 in
    if Btree.mem tree [| i |] <> expected then Alcotest.failf "key %d wrong" i
  done

(* [Btree.bulk_load]'s flat layout: the keys one after another. *)
let flat keys = Array.concat (Array.to_list keys)

let test_bulk_load_roundtrip () =
  let n = 30_000 in
  let keys = Array.init n (fun i -> [| i / 100; i mod 100; i |]) in
  let tree = Btree.bulk_load (make_pool ~capacity:2048 ()) ~key_len:3 (flat keys) in
  Alcotest.(check int) "count" n (Btree.n_entries tree);
  Alcotest.(check bool) "first" true (Btree.mem tree keys.(0));
  Alcotest.(check bool) "middle" true (Btree.mem tree keys.(n / 2));
  Alcotest.(check bool) "last" true (Btree.mem tree keys.(n - 1));
  Alcotest.(check bool) "absent" false (Btree.mem tree [| -1; 0; 0 |]);
  let all = collect_all tree in
  Alcotest.(check int) "iteration complete" n (List.length all);
  Alcotest.(check bool) "iteration matches input" true
    (List.for_all2 (fun a b -> a = b) all (Array.to_list keys))

let test_bulk_load_empty () =
  let tree = Btree.bulk_load (make_pool ()) ~key_len:1 [||] in
  Alcotest.(check int) "empty" 0 (Btree.n_entries tree);
  Alcotest.(check bool) "mem nothing" false (Btree.mem tree [| 0 |])

let test_bulk_load_unsorted_rejected () =
  Alcotest.(check bool) "unsorted rejected" true
    (match Btree.bulk_load (make_pool ()) ~key_len:1 [| 2; 1 |] with
    | _ -> false
    | exception Invalid_argument _ -> true);
  let rejected ~key_len keys =
    match Btree.bulk_load (make_pool ()) ~key_len keys with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "duplicate rejected" true (rejected ~key_len:2 [| 1; 2; 1; 2 |]);
  Alcotest.(check bool) "later component out of order rejected" true
    (rejected ~key_len:2 [| 1; 3; 1; 2 |]);
  Alcotest.(check bool) "length not a multiple of key_len rejected" true
    (rejected ~key_len:2 [| 1; 2; 3 |]);
  Alcotest.(check bool) "key_len 0 rejected" true (rejected ~key_len:0 [||])

let test_bulk_load_then_insert () =
  let keys = Array.init 1000 (fun i -> [| i * 2 |]) in
  let tree = Btree.bulk_load (make_pool ()) ~key_len:1 (flat keys) in
  for i = 0 to 999 do
    Btree.insert tree [| (i * 2) + 1 |]
  done;
  Alcotest.(check int) "mixed count" 2000 (Btree.n_entries tree);
  let all = collect_all tree in
  Alcotest.(check (list (array int))) "fully sorted"
    (List.init 2000 (fun i -> [| i |]))
    all

let test_wrong_key_len () =
  let tree = Btree.create (make_pool ()) ~key_len:2 in
  Alcotest.(check bool) "wrong arity rejected" true
    (match Btree.insert tree [| 1 |] with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_negative_and_extreme_keys () =
  let tree = Btree.create (make_pool ()) ~key_len:1 in
  List.iter (fun v -> Btree.insert tree [| v |]) [ max_int; min_int; 0; -1; 1 ];
  Alcotest.(check (list (array int))) "extremes sorted"
    [ [| min_int |]; [| -1 |]; [| 0 |]; [| 1 |]; [| max_int |] ]
    (collect_all tree)

(* -- model-based properties --------------------------------------------------- *)

let key_gen key_len range =
  QCheck.Gen.(map Array.of_list (list_repeat key_len (int_bound range)))

let print_keys keys =
  String.concat ";"
    (List.map (fun k -> "[" ^ String.concat "," (List.map string_of_int (Array.to_list k)) ^ "]") keys)

let insert_matches_set_prop =
  QCheck.Test.make ~name:"insert/mem/iter match a reference set" ~count:50
    (QCheck.make ~print:print_keys QCheck.Gen.(list_size (int_bound 400) (key_gen 2 20)))
    (fun keys ->
      let tree = Btree.create (make_pool ()) ~key_len:2 in
      let reference =
        List.fold_left
          (fun acc k ->
            Btree.insert tree k;
            Key_set.add (Array.copy k) acc)
          Key_set.empty keys
      in
      Btree.n_entries tree = Key_set.cardinal reference
      && collect_all tree = Key_set.elements reference
      && Key_set.for_all (Btree.mem tree) reference)

let delete_matches_set_prop =
  QCheck.Test.make ~name:"delete matches a reference set" ~count:50
    (QCheck.make ~print:QCheck.Print.(pair print_keys print_keys)
       QCheck.Gen.(
         pair
           (list_size (int_bound 300) (key_gen 1 40))
           (list_size (int_bound 300) (key_gen 1 40))))
    (fun (inserts, deletes) ->
      let tree = Btree.create (make_pool ()) ~key_len:1 in
      let reference =
        List.fold_left
          (fun acc k ->
            Btree.insert tree k;
            Key_set.add (Array.copy k) acc)
          Key_set.empty inserts
      in
      let reference =
        List.fold_left
          (fun acc k ->
            let present = Key_set.mem k acc in
            let deleted = Btree.delete tree k in
            if present <> deleted then failwith "delete result mismatch";
            Key_set.remove k acc)
          reference deletes
      in
      collect_all tree = Key_set.elements reference)

let range_matches_set_prop =
  QCheck.Test.make ~name:"range scan matches a reference set" ~count:100
    (QCheck.make
       ~print:
         QCheck.Print.(triple print_keys (fun i -> string_of_int i) (fun i -> string_of_int i))
       QCheck.Gen.(
         triple (list_size (int_bound 300) (key_gen 1 60)) (int_bound 60) (int_bound 60)))
    (fun (keys, b1, b2) ->
      let lo = min b1 b2 and hi = max b1 b2 in
      let tree = Btree.create (make_pool ()) ~key_len:1 in
      let reference =
        List.fold_left
          (fun acc k ->
            Btree.insert tree k;
            Key_set.add (Array.copy k) acc)
          Key_set.empty keys
      in
      let expected =
        Key_set.elements (Key_set.filter (fun k -> k.(0) >= lo && k.(0) <= hi) reference)
      in
      collect_range tree ~lo:[| lo |] ~hi:[| hi |] = expected)

let bulk_load_equals_inserts_prop =
  QCheck.Test.make ~name:"bulk_load equals repeated inserts" ~count:40
    (QCheck.make ~print:print_keys QCheck.Gen.(list_size (int_bound 500) (key_gen 2 50)))
    (fun keys ->
      let unique = Key_set.elements (Key_set.of_list (List.map Array.copy keys)) in
      let loaded =
        Btree.bulk_load (make_pool ()) ~key_len:2 (flat (Array.of_list unique))
      in
      let inserted = Btree.create (make_pool ()) ~key_len:2 in
      List.iter (Btree.insert inserted) unique;
      collect_all loaded = collect_all inserted
      && Btree.n_entries loaded = Btree.n_entries inserted)

let slices_agree_prop =
  QCheck.Test.make ~name:"iter_range_slices agrees with iter_range" ~count:50
    (QCheck.make ~print:print_keys QCheck.Gen.(list_size (int_bound 300) (key_gen 2 30)))
    (fun keys ->
      let tree = Btree.create (make_pool ()) ~key_len:2 in
      List.iter (Btree.insert tree) keys;
      let lo = [| 5; min_int |] and hi = [| 25; max_int |] in
      let via_arrays = collect_range tree ~lo ~hi in
      (* The kernel's in-place ranges pass exactly the entries a filter
         over the materialised keys would: component 1 in [10, 20]. *)
      let via_slices = ref [] in
      Btree.iter_range_slices tree ~lo ~hi
        ~ranges:(Cddpd_storage.Ranges.of_list [ (8, 10, 20) ])
        (fun buf pos ->
          via_slices :=
            [|
              Int64.to_int (Bytes.get_int64_le buf pos);
              Int64.to_int (Bytes.get_int64_le buf (pos + 8));
            |]
            :: !via_slices);
      List.filter (fun k -> k.(1) >= 10 && k.(1) <= 20) via_arrays = List.rev !via_slices)

(* -- leaf synopses -------------------------------------------------------------- *)

module Ranges = Cddpd_storage.Ranges
module Synopsis = Cddpd_storage.Synopsis

(* One triple of a walk, resolved against the live keys when the walk
   runs: on key component [comp], [shift] bytes past its aligned offset
   (so some triples read across two components, which no synopsis
   decides), at a literal, at the value a live entry holds there, at the
   value an entry the batch just inserted holds there (so a leaf whose
   synopsis an earlier walk built must have dropped it), or at a value
   that shares a held value's synopsis bit; [width] 0 is an equality. *)
type bound = Lit of int | Held of int | Fresh of int | Collide of int
type triple = { comp : int; shift : int; bound : bound; width : int }

(* The key range of a walk: the whole tree (an index-only scan), the
   entries whose component 0 equals a live entry's (a covering seek's
   fixed prefix), or a span of component 0. *)
type span = Whole | Prefix of int | Span of int * int

(* Writes between walks: an insert, the deletion of the k-th live key,
   and the deletion of every key whose component 0 lies in a span, which
   empties whole leaves. *)
type op = Ins of int array | Del of int | Del_span of int * int

type synopsis_case = {
  key_len : int;
  bulk : bool;
  init : int array list;
  batches : (op list * (span * triple list) list) list;
}

(* Component 0 is a key column with few values (the spans and prefixes
   walk it); a later key column has many, so a leaf holds few of them and
   its synopsis can exclude the rest; the last two play an index entry's
   rid (page, slot). *)
let entry_gen key_len =
  QCheck.Gen.(
    map Array.of_list
      (flatten_l
         (List.init key_len (fun j ->
              if j = 0 then int_bound 11
              else if j < key_len - 2 then int_bound 999
              else if j = key_len - 2 then int_bound 299
              else int_bound 99))))

let synopsis_case_gen =
  QCheck.Gen.(
    int_range 3 4 >>= fun key_len ->
    let triple =
      map4
        (fun comp shift bound width ->
          { comp; shift = (if comp = key_len - 1 then 0 else shift); bound; width })
        (int_bound (key_len - 1))
        (frequency [ (4, return 0); (1, return 3) ])
        (frequency
           [
             (1, map (fun v -> Lit v) (int_range (-1) 100));
             (3, map (fun k -> Held k) nat);
             (2, map (fun k -> Fresh k) nat);
             (3, map (fun k -> Collide k) nat);
           ])
        (frequency [ (6, return 0); (1, return 1); (1, return 5) ])
    in
    let span =
      frequency
        [
          (3, return Whole);
          (1, map (fun k -> Prefix k) nat);
          (1, map2 (fun a b -> Span (a, b)) (int_bound 11) (int_bound 11));
        ]
    in
    let op =
      frequency
        [
          (6, map (fun e -> Ins e) (entry_gen key_len));
          (3, map (fun k -> Del k) nat);
          (1, map2 (fun a w -> Del_span (a, a + w)) (int_bound 11) (int_bound 2));
        ]
    in
    let batch = pair (list_size (int_bound 60) op) (list_size (int_range 1 3) (pair span (list_size (int_range 1 3) triple))) in
    map3
      (fun bulk init batches -> { key_len; bulk; init; batches })
      bool
      (list_size (int_bound 700) (entry_gen key_len))
      (list_size (int_range 1 4) batch))

let print_synopsis_case c =
  let bound = function
    | Lit v -> string_of_int v
    | Held k -> Printf.sprintf "held%d" k
    | Fresh k -> Printf.sprintf "fresh%d" k
    | Collide k -> Printf.sprintf "collide%d" k
  in
  let span = function
    | Whole -> "whole"
    | Prefix k -> Printf.sprintf "prefix%d" k
    | Span (a, b) -> Printf.sprintf "span%d-%d" a b
  in
  Printf.sprintf "key_len %d, %s %d keys; %s" c.key_len
    (if c.bulk then "bulk-loaded" else "inserted")
    (List.length c.init)
    (String.concat "; "
       (List.map
          (fun (ops, walks) ->
            Printf.sprintf "%d ops, walks [%s]" (List.length ops)
              (String.concat ", "
                 (List.map
                    (fun (s, triples) ->
                      span s ^ " "
                      ^ String.concat " "
                          (List.map
                             (fun t ->
                               Printf.sprintf "(c%d+%d %s w%d)" t.comp t.shift (bound t.bound) t.width)
                             triples))
                    walks)))
          c.batches))

(* The 64-bit integer a walk reads at byte [off] of the entry [key]. *)
let raw_at key off =
  let buf = Bytes.create (8 * Array.length key) in
  Array.iteri (fun j v -> Bytes.set_int64_le buf (8 * j) (Int64.of_int v)) key;
  Int64.to_int (Bytes.get_int64_le buf off)

let colliding ~key v =
  let bit = Synopsis.bit ~key v in
  let rec search u = if Synopsis.bit ~key u = bit then u else search (u + 1) in
  search (v + 1)

let synopsis_walk_prop =
  QCheck.Test.make ~name:"leaf synopsis walk = naive walk" ~count:300
    (QCheck.make ~print:print_synopsis_case synopsis_case_gen)
    (fun c ->
      let key_len = c.key_len in
      let unique = Key_set.elements (Key_set.of_list (List.map Array.copy c.init)) in
      let twin () =
        let disk = Disk.create () in
        let pool = Buffer_pool.create ~capacity:6 disk in
        let tree =
          if c.bulk then Btree.bulk_load pool ~key_len (flat (Array.of_list unique))
          else begin
            let tree = Btree.create pool ~key_len in
            List.iter (Btree.insert tree) c.init;
            tree
          end
        in
        (disk, pool, tree)
      in
      let disk_a, pool_a, tree_a = twin () and disk_b, pool_b, tree_b = twin () in
      let live = ref (Key_set.of_list unique) in
      let nth k =
        match Key_set.elements !live with [] -> None | l -> Some (List.nth l (k mod List.length l))
      in
      let fresh = ref [] in
      let apply op =
        let delete key =
          ignore (Btree.delete tree_a key);
          ignore (Btree.delete tree_b key);
          live := Key_set.remove key !live
        in
        match op with
        | Ins key ->
            Btree.insert tree_a key;
            Btree.insert tree_b key;
            fresh := key :: !fresh;
            live := Key_set.add key !live
        | Del k -> Option.iter delete (nth k)
        | Del_span (a, b) -> Key_set.iter (fun key -> if key.(0) >= a && key.(0) <= b then delete key) !live
      in
      let resolve t =
        let off = (8 * t.comp) + t.shift in
        let held k = match nth k with Some key -> raw_at key off | None -> 0 in
        let lo =
          match t.bound with
          | Lit v -> v
          | Held k -> held k
          | Fresh k -> (
              match !fresh with [] -> held k | l -> raw_at (List.nth l (k mod List.length l)) off)
          | Collide k -> colliding ~key:t.comp (held k)
        in
        (off, lo, lo + t.width)
      in
      let bounds span =
        let lo = Array.make key_len min_int and hi = Array.make key_len max_int in
        (match span with
        | Whole -> ()
        | Prefix k ->
            let v = match nth k with Some key -> key.(0) | None -> 0 in
            lo.(0) <- v;
            hi.(0) <- v
        | Span (a, b) ->
            lo.(0) <- min a b;
            hi.(0) <- max a b);
        (lo, hi)
      in
      let deltas pool disk f =
        let before = Buffer_pool.stats pool and reads = Disk.reads disk in
        let result = f () in
        let after = Buffer_pool.stats pool in
        ( result,
          Buffer_pool.
            ( after.hits - before.hits,
              after.misses - before.misses,
              after.evictions - before.evictions ),
          Disk.reads disk - reads )
      in
      let walk (span, specs) =
        let lo, hi = bounds span and triples = List.map resolve specs in
        let got, stats_a, reads_a =
          deltas pool_a disk_a (fun () ->
              let out = ref [] in
              Btree.iter_range_slices tree_a ~lo ~hi ~ranges:(Ranges.of_list triples) (fun buf pos ->
                  out :=
                    Array.init key_len (fun j -> Int64.to_int (Bytes.get_int64_le buf (pos + (8 * j))))
                    :: !out);
              List.rev !out)
        in
        let naive, stats_b, reads_b =
          deltas pool_b disk_b (fun () -> Naive.btree_walk tree_b ~key_len ~lo ~hi triples)
        in
        let model =
          List.filter
            (fun key ->
              compare lo key <= 0 && compare key hi <= 0
              && List.for_all (fun (off, l, h) -> let v = raw_at key off in l <= v && v <= h) triples)
            (Key_set.elements !live)
        in
        got = naive && naive = model && stats_a = stats_b && reads_a = reads_b
      in
      List.for_all
        (fun (ops, walks) ->
          fresh := [];
          List.iter apply ops;
          List.for_all walk walks)
        c.batches)

let () =
  Alcotest.run "btree"
    [
      ( "unit",
        [
          Alcotest.test_case "empty tree" `Quick test_empty_tree;
          Alcotest.test_case "insert/mem" `Quick test_insert_mem;
          Alcotest.test_case "duplicate insert" `Quick test_insert_duplicate;
          Alcotest.test_case "sorted iteration" `Quick test_sorted_iteration;
          Alcotest.test_case "many inserts with splits" `Slow test_many_inserts_split;
          Alcotest.test_case "descending inserts" `Quick test_descending_inserts;
          Alcotest.test_case "range basic" `Quick test_range_basic;
          Alcotest.test_case "range reversed bounds" `Quick test_range_reversed_bounds;
          Alcotest.test_case "prefix scan" `Quick test_prefix_scan;
          Alcotest.test_case "delete" `Quick test_delete;
          Alcotest.test_case "delete heavy" `Slow test_delete_heavy;
          Alcotest.test_case "bulk load roundtrip" `Slow test_bulk_load_roundtrip;
          Alcotest.test_case "bulk load empty" `Quick test_bulk_load_empty;
          Alcotest.test_case "bulk load unsorted" `Quick test_bulk_load_unsorted_rejected;
          Alcotest.test_case "bulk load then insert" `Quick test_bulk_load_then_insert;
          Alcotest.test_case "wrong key_len" `Quick test_wrong_key_len;
          Alcotest.test_case "extreme keys" `Quick test_negative_and_extreme_keys;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest insert_matches_set_prop;
          QCheck_alcotest.to_alcotest delete_matches_set_prop;
          QCheck_alcotest.to_alcotest range_matches_set_prop;
          QCheck_alcotest.to_alcotest bulk_load_equals_inserts_prop;
          QCheck_alcotest.to_alcotest slices_agree_prop;
          QCheck_alcotest.to_alcotest synopsis_walk_prop;
        ] );
    ]
