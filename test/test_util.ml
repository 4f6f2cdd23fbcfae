(* Unit and property tests for Cddpd_util: Rng, Stats, Text_table,
   Timer, Parallel, Json. *)

module Rng = Cddpd_util.Rng
module Stats = Cddpd_util.Stats
module Text_table = Cddpd_util.Text_table
module Timer = Cddpd_util.Timer
module Parallel = Cddpd_util.Parallel
module Json = Cddpd_util.Json

let check_float = Alcotest.(check (float 1e-9))

(* -- Rng ------------------------------------------------------------------ *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different seeds diverge"
    false
    (List.init 4 (fun _ -> Rng.next_int64 a) = List.init 4 (fun _ -> Rng.next_int64 b))

let test_rng_copy () =
  let a = Rng.create 7 in
  ignore (Rng.next_int64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.next_int64 a) (Rng.next_int64 b)

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  Alcotest.(check bool) "split streams differ" false (Rng.next_int64 a = Rng.next_int64 b)

let test_rng_int_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 17 in
    if v < 0 || v >= 17 then Alcotest.failf "Rng.int out of bounds: %d" v
  done

let test_rng_int_invalid () =
  let rng = Rng.create 3 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_int_uniformity () =
  let rng = Rng.create 11 in
  let counts = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let v = Rng.int rng 10 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      let expected = n / 10 in
      if abs (c - expected) > expected / 10 then
        Alcotest.failf "bucket %d has %d hits, expected ~%d" i c expected)
    counts

let test_rng_float_bounds () =
  let rng = Rng.create 5 in
  for _ = 1 to 10_000 do
    let v = Rng.float rng 2.5 in
    if v < 0.0 || v >= 2.5 then Alcotest.failf "Rng.float out of bounds: %f" v
  done

let test_rng_pick_weighted () =
  let rng = Rng.create 13 in
  let choices = [| ("x", 3.0); ("y", 1.0) |] in
  let x = ref 0 in
  let n = 40_000 in
  for _ = 1 to n do
    if Rng.pick_weighted rng choices = "x" then incr x
  done;
  let frac = float_of_int !x /. float_of_int n in
  if frac < 0.72 || frac > 0.78 then
    Alcotest.failf "weighted pick fraction %.3f not near 0.75" frac

let test_rng_pick_weighted_invalid () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "zero total"
    (Invalid_argument "Rng.pick_weighted: weights sum to zero") (fun () ->
      ignore (Rng.pick_weighted rng [| ("x", 0.0) |]))

let test_rng_shuffle_permutation () =
  let rng = Rng.create 17 in
  let arr = Array.init 50 (fun i -> i) in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "shuffle is a permutation" (Array.init 50 (fun i -> i)) sorted

(* The experiment runner pre-splits one stream per cell from a master
   generator in declaration order; determinism of the parallel fan-out
   requires the i-th split stream to depend only on (seed, i). *)
let rng_split_streams_prop =
  QCheck.Test.make ~name:"split streams depend only on (seed, index)" ~count:200
    QCheck.(pair small_nat (int_bound 5))
    (fun (seed, extra) ->
      let streams k =
        let master = Rng.create seed in
        Array.init k (fun _ -> Rng.split master)
      in
      let draws rng = List.init 8 (fun _ -> Rng.next_int64 rng) in
      let short = Array.map draws (streams 4) in
      let long = Array.map draws (streams (5 + extra)) in
      (* Splitting more streams later must leave earlier streams untouched. *)
      let stable = Array.for_all2 ( = ) short (Array.sub long 0 4) in
      (* Streams must not collide with each other. *)
      let all = Array.to_list long in
      let distinct = List.length (List.sort_uniq compare all) = List.length all in
      stable && distinct)

(* -- Stats ----------------------------------------------------------------- *)

let test_stats_mean () = check_float "mean" 2.5 (Stats.mean [| 1.; 2.; 3.; 4. |])

let test_stats_variance () =
  check_float "variance" 1.25 (Stats.variance [| 1.; 2.; 3.; 4. |])

let test_stats_minmax () =
  check_float "min" 1.0 (Stats.minimum [| 3.; 1.; 2. |]);
  check_float "max" 3.0 (Stats.maximum [| 3.; 1.; 2. |])

let test_stats_percentile () =
  let xs = [| 10.; 20.; 30.; 40.; 50. |] in
  check_float "median" 30.0 (Stats.percentile xs 50.0);
  check_float "p0" 10.0 (Stats.percentile xs 0.0);
  check_float "p100" 50.0 (Stats.percentile xs 100.0);
  check_float "p25" 20.0 (Stats.percentile xs 25.0)

let test_stats_percentile_single () =
  check_float "singleton" 7.0 (Stats.percentile [| 7.0 |] 83.0)

let test_stats_empty () =
  Alcotest.check_raises "mean of empty" (Invalid_argument "Stats.mean: empty array")
    (fun () -> ignore (Stats.mean [||]))

let test_stats_histogram_counts () =
  let counts = Stats.histogram_counts [| 0.1; 0.2; 0.9; 1.5; -3.0 |] ~buckets:2 ~lo:0.0 ~hi:1.0 in
  Alcotest.(check (array int)) "bucket counts" [| 3; 2 |] counts

(* -- Text_table ------------------------------------------------------------ *)

let test_text_table_render () =
  let t = Text_table.create [ ("name", Text_table.Left); ("n", Text_table.Right) ] in
  Text_table.add_row t [ "alpha"; "1" ];
  Text_table.add_row t [ "b"; "22" ];
  let rendered = Text_table.render t in
  Alcotest.(check string) "aligned"
    "name  |  n\n------+---\nalpha |  1\nb     | 22" rendered

let test_text_table_bad_row () =
  let t = Text_table.create [ ("a", Text_table.Left) ] in
  Alcotest.check_raises "wrong arity"
    (Invalid_argument "Text_table.add_row: wrong number of cells") (fun () ->
      Text_table.add_row t [ "x"; "y" ])

(* -- Timer ------------------------------------------------------------------ *)

let test_timer_returns_result () =
  let result, elapsed = Timer.time (fun () -> 1 + 1) in
  Alcotest.(check int) "result" 2 result;
  Alcotest.(check bool) "elapsed nonnegative" true (elapsed >= 0.0)

let test_timer_median () =
  let result, elapsed = Timer.time_median ~repeats:3 (fun () -> "ok") in
  Alcotest.(check string) "result" "ok" result;
  Alcotest.(check bool) "elapsed nonnegative" true (elapsed >= 0.0)

(* -- Parallel -------------------------------------------------------------- *)

let test_parallel_map_chunks_partition () =
  let chunks = Parallel.map_chunks ~jobs:4 ~n:10 (fun ~lo ~hi -> (lo, hi)) in
  let rec contiguous pos chunks =
    match chunks with
    | [] -> pos = 10
    | (lo, hi) :: rest -> lo = pos && hi >= lo && contiguous hi rest
  in
  Alcotest.(check bool) "chunks tile [0, n)" true (contiguous 0 chunks);
  Alcotest.(check (list (pair int int))) "empty range" []
    (Parallel.map_chunks ~jobs:4 ~n:0 (fun ~lo ~hi -> (lo, hi)))

let test_parallel_exception_propagates () =
  Alcotest.check_raises "body exception re-raised" (Failure "boom") (fun () ->
      ignore
        (Parallel.map_chunks ~jobs:4 ~n:100 (fun ~lo ~hi ->
             for i = lo to hi - 1 do
               if i = 73 then failwith "boom"
             done)))

let parallel_sum_matches_sequential_prop =
  QCheck.Test.make ~name:"parallel chunk sums == sequential sum" ~count:50
    QCheck.(pair (int_range 1 500) (int_range 1 8))
    (fun (n, jobs) ->
      let values = Array.init n (fun i -> (i * 37 mod 101) - 50) in
      let chunk_sums =
        Parallel.map_chunks ~jobs ~n (fun ~lo ~hi ->
            let acc = ref 0 in
            for i = lo to hi - 1 do
              acc := !acc + values.(i)
            done;
            !acc)
      in
      List.fold_left ( + ) 0 chunk_sums = Array.fold_left ( + ) 0 values)

(* -- Json ------------------------------------------------------------------ *)

(* The committed baselines, copied next to the test directory by dune. *)
let bench_baselines = [ "configspace"; "experiments"; "ingest"; "serve"; "solvers" ]

let read path = In_channel.with_open_bin path In_channel.input_all

let parse_exn text =
  match Json.parse text with Ok v -> v | Error message -> Alcotest.failf "parse: %s" message

let test_json_baselines_round_trip () =
  List.iter
    (fun suite ->
      let text = read (Printf.sprintf "../BENCH_%s.json" suite) in
      Alcotest.(check string)
        (suite ^ " prints back byte for byte")
        text
        (Json.to_string (parse_exn text) ^ "\n"))
    bench_baselines

let test_json_lint_baseline_parses () =
  match parse_exn (read "../lint-baseline.json") with
  | Json.Object (("schema", Json.String "cddpd-lint-baseline/1") :: _) -> ()
  | _ -> Alcotest.fail "lint-baseline.json: unexpected shape"

let test_json_malformed () =
  List.iter
    (fun text ->
      match Json.parse text with
      | Ok _ -> Alcotest.failf "%S parsed" text
      | Error _ -> ())
    [ {|{"a":[1,2|}; {|"\q"|}; {|{"a":1} x|}; "nope"; ""; "01"; "-"; {|"\u12"|}; {|"\u1_23"|} ]

let test_json_escapes () =
  let v = Json.String "quote \" backslash \\ newline \n tab \t nul \000 \xc3\xa9" in
  let text = Json.to_string v in
  Alcotest.(check string) "escaped"
    ({|"quote \" backslash \\ newline \n tab \t nul \u0000 |} ^ "\xc3\xa9\"")
    text;
  Alcotest.(check bool) "round trip" true (parse_exn text = v);
  Alcotest.(check bool) "\\u escapes decode to UTF-8" true
    (parse_exn {|"\u00e9\ud83d\ude00"|} = Json.String "\xc3\xa9\xf0\x9f\x98\x80")

(* [at path f v] rewrites the member of [v] that [path] reaches (object
   keys and array indices) with [f]. *)
let rec at path f v =
  match (path, v) with
  | [], v -> f v
  | `K k :: rest, Json.Object members ->
      Json.Object
        (List.map (fun (k', x) -> if String.equal k k' then (k', at rest f x) else (k', x)) members)
  | `I i :: rest, Json.Array items ->
      Json.Array (List.mapi (fun j x -> if j = i then at rest f x else x) items)
  | _ -> Alcotest.fail "no such path"

let test_json_diff () =
  let recorded = parse_exn (read "../BENCH_configspace.json") in
  let diff fresh = Json.diff ~skip:(String.ends_with ~suffix:"_s") ~recorded fresh in
  let names needle message =
    let n = String.length needle in
    let rec scan i =
      i + n <= String.length message
      && (String.equal (String.sub message i n) needle || scan (i + 1))
    in
    scan 0
  in
  let expect_error name fresh needle =
    match diff fresh with
    | [] -> Alcotest.failf "%s: passed the gate" name
    | messages ->
        if not (List.exists (names needle) messages) then
          Alcotest.failf "%s: %S does not name %s" name (String.concat "; " messages) needle
  in
  Alcotest.(check (list string)) "identical" [] (diff recorded);
  expect_error "altered leaf"
    (at [ `K "cells"; `I 2; `K "whatif"; `K "measured" ] (fun _ -> Json.int (-1)) recorded)
    "cells[2].whatif.measured";
  Alcotest.(check (list string)) "altered wall time passes" []
    (diff (at [ `K "cells"; `I 2; `K "solve_s" ] (fun _ -> Json.Number "9.999999") recorded));
  expect_error "missing key"
    (at [ `K "cells"; `I 0 ]
       (function Json.Object (_ :: rest) -> Json.Object rest | v -> v)
       recorded)
    "cells[0].candidates_cap";
  expect_error "extra array element"
    (at [ `K "cells" ] (function Json.Array l -> Json.Array (l @ [ List.hd l ]) | v -> v) recorded)
    "cells"

(* Two altered leaves in one document are both named, in document order;
   past the cap, one last line counts the rest. *)
let test_json_diff_names_every_leaf () =
  let recorded = parse_exn (read "../BENCH_configspace.json") in
  let diff fresh = Json.diff ~skip:(String.ends_with ~suffix:"_s") ~recorded fresh in
  let measured i = [ `K "cells"; `I i; `K "whatif"; `K "measured" ] in
  let two =
    recorded
    |> at (measured 0) (fun _ -> Json.int (-1))
    |> at (measured 2) (fun _ -> Json.int (-2))
  in
  (match diff two with
  | [ first; second ] ->
      Alcotest.(check bool) "first names cells[0]" true
        (String.starts_with ~prefix:"cells[0].whatif.measured is -1" first);
      Alcotest.(check bool) "second names cells[2]" true
        (String.starts_with ~prefix:"cells[2].whatif.measured is -2" second)
  | messages -> Alcotest.failf "expected two messages, got %S" (String.concat "; " messages));
  let moved =
    Json.diff ~skip:(fun _ -> false)
      ~recorded:(Json.Array (List.init 25 Json.int))
      (Json.Array (List.init 25 (fun i -> Json.int (-i - 1))))
  in
  Alcotest.(check int) "capped at 20 plus a count" 21 (List.length moved);
  Alcotest.(check string) "count of the rest" "... and 5 more differing leaves"
    (List.nth moved 20)

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int invalid bound" `Quick test_rng_int_invalid;
          Alcotest.test_case "int uniformity" `Slow test_rng_int_uniformity;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "weighted pick" `Slow test_rng_pick_weighted;
          Alcotest.test_case "weighted pick invalid" `Quick test_rng_pick_weighted_invalid;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          QCheck_alcotest.to_alcotest rng_split_streams_prop;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_stats_mean;
          Alcotest.test_case "variance" `Quick test_stats_variance;
          Alcotest.test_case "min/max" `Quick test_stats_minmax;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "percentile singleton" `Quick test_stats_percentile_single;
          Alcotest.test_case "empty input" `Quick test_stats_empty;
          Alcotest.test_case "histogram counts" `Quick test_stats_histogram_counts;
        ] );
      ( "json",
        [
          Alcotest.test_case "committed baselines round-trip" `Quick test_json_baselines_round_trip;
          Alcotest.test_case "lint baseline parses" `Quick test_json_lint_baseline_parses;
          Alcotest.test_case "malformed input is an error" `Quick test_json_malformed;
          Alcotest.test_case "escapes" `Quick test_json_escapes;
          Alcotest.test_case "leaf-by-leaf diff" `Quick test_json_diff;
          Alcotest.test_case "diff names every moved leaf" `Quick
            test_json_diff_names_every_leaf;
        ] );
      ( "text_table",
        [
          Alcotest.test_case "render" `Quick test_text_table_render;
          Alcotest.test_case "bad row" `Quick test_text_table_bad_row;
        ] );
      ( "timer",
        [
          Alcotest.test_case "returns result" `Quick test_timer_returns_result;
          Alcotest.test_case "median" `Quick test_timer_median;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "map_chunks partitions" `Quick
            test_parallel_map_chunks_partition;
          Alcotest.test_case "exception propagates" `Quick
            test_parallel_exception_propagates;
          QCheck_alcotest.to_alcotest parallel_sum_matches_sequential_prop;
        ] );
    ]
