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

let test_bulk_load_roundtrip () =
  let n = 30_000 in
  let keys = Array.init n (fun i -> [| i / 100; i mod 100; i |]) in
  let tree = Btree.bulk_load (make_pool ~capacity:2048 ()) ~key_len:3 keys in
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
    (match Btree.bulk_load (make_pool ()) ~key_len:1 [| [| 2 |]; [| 1 |] |] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_bulk_load_then_insert () =
  let keys = Array.init 1000 (fun i -> [| i * 2 |]) in
  let tree = Btree.bulk_load (make_pool ()) ~key_len:1 keys in
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
        Btree.bulk_load (make_pool ()) ~key_len:2 (Array.of_list unique)
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
        ] );
    ]
