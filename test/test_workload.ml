(* Workload library tests: mixes (Table 1), specs, the W1/W2/W3 workloads
   (Table 2), traces, and data generation. *)

module Mix = Cddpd_workload.Mix
module Spec = Cddpd_workload.Spec
module Workloads = Cddpd_workload.Workloads
module Trace = Cddpd_workload.Trace
module Data_gen = Cddpd_workload.Data_gen
module Ast = Cddpd_sql.Ast
module Printer = Cddpd_sql.Printer
module Tuple = Cddpd_storage.Tuple
module Rng = Cddpd_util.Rng

(* -- Mix ---------------------------------------------------------------------- *)

let test_mix_table1_weights () =
  (* The exact Table 1 numbers. *)
  let expect mix col w =
    Alcotest.(check (float 1e-9))
      (Printf.sprintf "%s.%s" (Mix.name mix) col)
      w (Mix.weight mix col)
  in
  expect Mix.mix_a "a" 0.55;
  expect Mix.mix_a "b" 0.25;
  expect Mix.mix_a "c" 0.10;
  expect Mix.mix_a "d" 0.10;
  expect Mix.mix_b "b" 0.55;
  expect Mix.mix_c "c" 0.55;
  expect Mix.mix_c "d" 0.25;
  expect Mix.mix_d "d" 0.55;
  expect Mix.mix_d "c" 0.25

let test_mix_normalisation () =
  let m = Mix.make ~name:"m" [ ("x", 2.0); ("y", 6.0) ] in
  Alcotest.(check (float 1e-9)) "x" 0.25 (Mix.weight m "x");
  Alcotest.(check (float 1e-9)) "y" 0.75 (Mix.weight m "y");
  Alcotest.(check (float 1e-9)) "absent" 0.0 (Mix.weight m "z")

let test_mix_invalid () =
  Alcotest.(check bool) "empty rejected" true
    (match Mix.make ~name:"m" [] with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "nonpositive rejected" true
    (match Mix.make ~name:"m" [ ("x", 0.0) ] with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "duplicate rejected" true
    (match Mix.make ~name:"m" [ ("x", 1.0); ("x", 1.0) ] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_mix_of_letter () =
  Alcotest.(check string) "A" "A" (Mix.name (Mix.of_letter 'A'));
  Alcotest.(check string) "lowercase d" "D" (Mix.name (Mix.of_letter 'd'));
  Alcotest.(check bool) "bad letter" true
    (match Mix.of_letter 'z' with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_mix_sample_query_shape () =
  let rng = Rng.create 1 in
  for _ = 1 to 50 do
    match Mix.sample_query Mix.mix_a ~table:"t" ~value_range:100 rng with
    | Ast.Select { projection = Ast.Columns [ col ]; table = "t"; where = [ pred ] } -> (
        match pred with
        | Ast.Cmp { column; op = Ast.Eq; value = Tuple.Int v } ->
            (* The paper's template: the projected column is the predicate
               column, and the constant is in range. *)
            Alcotest.(check string) "same column" col column;
            if v < 0 || v >= 100 then Alcotest.failf "value %d out of range" v
        | _ -> Alcotest.fail "not a point predicate")
    | _ -> Alcotest.fail "not a point query"
  done

let test_mix_sample_distribution () =
  let rng = Rng.create 5 in
  let n = 20_000 in
  let count = ref 0 in
  for _ = 1 to n do
    if Mix.sample_column Mix.mix_a rng = "a" then incr count
  done;
  let frac = float_of_int !count /. float_of_int n in
  Alcotest.(check bool) "55% on column a" true (frac > 0.53 && frac < 0.57)

(* -- Spec ---------------------------------------------------------------------- *)

let test_spec_of_letters () =
  let spec = Spec.of_letters ~queries_per_segment:100 "AABD" in
  Alcotest.(check int) "segments" 4 (Spec.n_segments spec);
  Alcotest.(check int) "total" 400 (Spec.total_queries spec);
  Alcotest.(check string) "letters" "AABD" (Spec.mix_letters spec)

let test_spec_generate_deterministic () =
  let spec = Spec.of_letters ~queries_per_segment:50 "AB" in
  let s1 = Spec.generate spec ~table:"t" ~value_range:100 ~seed:3 in
  let s2 = Spec.generate spec ~table:"t" ~value_range:100 ~seed:3 in
  let s3 = Spec.generate spec ~table:"t" ~value_range:100 ~seed:4 in
  Alcotest.(check bool) "same seed, same queries" true (s1 = s2);
  Alcotest.(check bool) "different seed, different queries" true (s1 <> s3)

let test_spec_generate_shape () =
  let spec = Spec.of_letters ~queries_per_segment:30 "ABC" in
  let segments = Spec.generate spec ~table:"t" ~value_range:100 ~seed:1 in
  Alcotest.(check int) "3 segments" 3 (Array.length segments);
  Array.iter (fun s -> Alcotest.(check int) "segment size" 30 (Array.length s)) segments

let test_spec_generate_flat () =
  let spec = Spec.of_letters ~queries_per_segment:30 "AB" in
  let flat = Spec.generate_flat spec ~table:"t" ~value_range:100 ~seed:1 in
  let segments = Spec.generate spec ~table:"t" ~value_range:100 ~seed:1 in
  Alcotest.(check bool) "flat = concat segments" true
    (flat = Array.concat (Array.to_list segments))

let test_spec_invalid () =
  Alcotest.(check bool) "empty spec" true
    (match Spec.make [] with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "zero-size segment" true
    (match Spec.make [ { Spec.mix = Mix.mix_a; n_queries = 0 } ] with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* -- Workloads (Table 2) --------------------------------------------------------- *)

let test_workload_letters_match_paper () =
  (* Spot-check the Table 2 mix columns. *)
  Alcotest.(check int) "30 segments" 30 (String.length Workloads.letters_w1);
  Alcotest.(check string) "W1" "AABBAABBAACCDDCCDDCCAABBAABBAA" Workloads.letters_w1;
  Alcotest.(check string) "W2" "ABABABABABCDCDCDCDCDABABABABAB" Workloads.letters_w2;
  Alcotest.(check string) "W3" "BBAABBAABBDDCCDDCCDDBBAABBAABB" Workloads.letters_w3

let test_workload_specs () =
  let w1 = Workloads.w1 () in
  Alcotest.(check int) "full scale" 15_000 (Spec.total_queries w1);
  Alcotest.(check string) "letters" Workloads.letters_w1 (Spec.mix_letters w1);
  let small = Workloads.w2 ~scale:0.1 () in
  Alcotest.(check int) "scaled" 1_500 (Spec.total_queries small)

let test_workload_by_name () =
  Alcotest.(check string) "w3 by name" Workloads.letters_w3
    (Spec.mix_letters (Workloads.by_name "w3" ()));
  Alcotest.(check bool) "unknown" true
    (match Workloads.by_name "w9" () with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_workload_phases_structure () =
  (* Major shifts at segments 10 and 20: phase 1/3 use A/B, phase 2 C/D. *)
  let letters = Workloads.letters_w1 in
  for i = 0 to 29 do
    let expected_phase2 = i >= 10 && i < 20 in
    let is_cd = letters.[i] = 'C' || letters.[i] = 'D' in
    if is_cd <> expected_phase2 then Alcotest.failf "segment %d in wrong phase" i
  done

(* -- Trace ------------------------------------------------------------------------ *)

let sample_statements () =
  Spec.generate_flat (Spec.of_letters ~queries_per_segment:20 "AB") ~table:"t"
    ~value_range:50 ~seed:9

let test_trace_roundtrip () =
  let statements = sample_statements () in
  match Trace.of_lines (Trace.to_lines statements) with
  | Ok parsed -> Alcotest.(check bool) "roundtrip" true (parsed = statements)
  | Error message -> Alcotest.failf "trace parse failed: %s" message

let test_trace_comments_and_blanks () =
  match Trace.of_lines [ "# a comment"; ""; "SELECT a FROM t WHERE a = 1"; "   " ] with
  | Ok parsed -> Alcotest.(check int) "one statement" 1 (Array.length parsed)
  | Error message -> Alcotest.failf "unexpected error: %s" message

let test_trace_error_line_number () =
  match Trace.of_lines [ "SELECT a FROM t"; "garbage here" ] with
  | Ok _ -> Alcotest.fail "expected an error"
  | Error message ->
      Alcotest.(check bool) "names line 2" true
        (String.length message >= 6 && String.sub message 0 6 = "line 2")

let test_trace_file_roundtrip () =
  let statements = sample_statements () in
  let path = Filename.temp_file "cddpd_trace" ".sql" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.save path statements;
      match Trace.load path with
      | Ok parsed -> Alcotest.(check bool) "file roundtrip" true (parsed = statements)
      | Error message -> Alcotest.failf "load failed: %s" message)

let test_trace_load_missing_file () =
  Alcotest.(check bool) "missing file is an error" true
    (Result.is_error (Trace.load "/nonexistent/path/trace.sql"))

let test_trace_segment () =
  let statements = sample_statements () in
  let segments = Trace.segment statements ~size:7 in
  Alcotest.(check int) "segment count" 6 (Array.length segments);
  Alcotest.(check int) "last short" 5 (Array.length segments.(5));
  Alcotest.(check bool) "contents preserved" true
    (Array.concat (Array.to_list segments) = statements)

(* -- Segmenter --------------------------------------------------------------------- *)

module Segmenter = Cddpd_workload.Segmenter

let shifted_trace () =
  (* 1000 A-queries, then 1000 C-queries, then 1000 A-queries. *)
  Spec.generate_flat
    (Spec.of_letters ~queries_per_segment:1000 "ACA")
    ~table:"t" ~value_range:100 ~seed:12

let test_segmenter_profile () =
  let statements = shifted_trace () in
  let profile = Segmenter.column_profile (Array.sub statements 0 1000) in
  (match profile with
  | ("a", f) :: _ -> Alcotest.(check bool) "a dominates" true (f > 0.5)
  | _ -> Alcotest.fail "expected a to dominate");
  Alcotest.(check (float 1e-9)) "profile sums to 1" 1.0
    (List.fold_left (fun acc (_, f) -> acc +. f) 0.0 profile)

let test_segmenter_distance () =
  let p1 = [ ("a", 0.6); ("b", 0.4) ] in
  let p2 = [ ("a", 0.1); ("b", 0.4); ("c", 0.5) ] in
  Alcotest.(check (float 1e-9)) "L1 distance" 1.0 (Segmenter.profile_distance p1 p2);
  Alcotest.(check (float 1e-9)) "identical profiles" 0.0 (Segmenter.profile_distance p1 p1)

let test_segmenter_finds_major_shifts () =
  let statements = shifted_trace () in
  let cuts = Segmenter.boundaries statements in
  Alcotest.(check int) "two major shifts" 2 (List.length cuts);
  List.iter2
    (fun cut expected ->
      if abs (cut - expected) > 250 then
        Alcotest.failf "boundary %d far from expected %d" cut expected)
    cuts [ 1000; 2000 ];
  Alcotest.(check int) "suggest_k = shifts" 2 (Segmenter.suggest_k statements)

let test_segmenter_stable_trace () =
  let statements =
    Spec.generate_flat (Spec.of_letters ~queries_per_segment:3000 "A") ~table:"t"
      ~value_range:100 ~seed:13
  in
  Alcotest.(check (list int)) "no boundaries" [] (Segmenter.boundaries statements);
  let segments = Segmenter.segment statements in
  Alcotest.(check int) "single segment" 1 (Array.length segments)

let test_segmenter_segments_partition () =
  let statements = shifted_trace () in
  let segments = Segmenter.segment statements in
  Alcotest.(check bool) "concatenation preserved" true
    (Array.concat (Array.to_list segments) = statements);
  Alcotest.(check int) "three segments" 3 (Array.length segments)

let test_segmenter_short_trace () =
  let statements = Array.sub (shifted_trace ()) 0 100 in
  Alcotest.(check (list int)) "too short to split" [] (Segmenter.boundaries statements)

(* -- Dml_gen ----------------------------------------------------------------------- *)

let test_dml_blend_share () =
  (* A large sample: the share of a small batch has wide variance. *)
  let statements =
    Spec.generate_flat (Spec.of_letters ~queries_per_segment:2000 "A") ~table:"t"
      ~value_range:50 ~seed:9
  in
  let blended = Cddpd_workload.Dml_gen.blend ~update_fraction:0.5 ~value_range:50 ~seed:4 statements in
  let share = Cddpd_workload.Dml_gen.update_share blended in
  Alcotest.(check int) "same length" (Array.length statements) (Array.length blended);
  Alcotest.(check bool) "share near 50%" true (share > 0.45 && share < 0.55);
  Alcotest.(check (float 0.0)) "zero fraction is identity" 0.0
    (Cddpd_workload.Dml_gen.update_share
       (Cddpd_workload.Dml_gen.blend ~update_fraction:0.0 ~value_range:50 ~seed:4 statements))

let test_dml_blend_preserves_columns () =
  let statements = sample_statements () in
  let blended = Cddpd_workload.Dml_gen.blend ~update_fraction:1.0 ~value_range:50 ~seed:4 statements in
  Array.iteri
    (fun i statement ->
      match (statements.(i), statement) with
      | ( Ast.Select { where = [ Ast.Cmp { column = c1; _ } ]; _ },
          Ast.Update { assignments = [ (set_col, _) ]; where = [ Ast.Cmp { column = c2; _ } ]; _ } )
        ->
          if c1 <> c2 || set_col <> c1 then Alcotest.failf "column changed at %d" i
      | _, Ast.Select _ -> Alcotest.failf "statement %d not converted" i
      | _ -> Alcotest.failf "unexpected shape at %d" i)
    blended

let test_dml_blend_deterministic () =
  let statements = sample_statements () in
  let b1 = Cddpd_workload.Dml_gen.blend ~update_fraction:0.4 ~value_range:50 ~seed:9 statements in
  let b2 = Cddpd_workload.Dml_gen.blend ~update_fraction:0.4 ~value_range:50 ~seed:9 statements in
  Alcotest.(check bool) "deterministic" true (b1 = b2)

let test_dml_blend_invalid () =
  Alcotest.(check bool) "fraction > 1 rejected" true
    (match
       Cddpd_workload.Dml_gen.blend ~update_fraction:1.5 ~value_range:50 ~seed:1 [||]
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* -- Report_gen --------------------------------------------------------------------- *)

module Report_gen = Cddpd_workload.Report_gen

let test_report_gen_shape () =
  let statements =
    Report_gen.segment ~table:"t" ~group_by:"c" ~sum_columns:[ "a"; "b" ]
      ~probe_fraction:0.5 ~n:200 ~value_range:100 ~seed:3 ()
  in
  Alcotest.(check int) "length" 200 (Array.length statements);
  let probes = ref 0 and scans = ref 0 and sums = ref 0 in
  Array.iter
    (fun statement ->
      match statement with
      | Ast.Select_agg { table = "t"; group_by = "c"; aggregate; where } ->
          (match where with
          | [] -> incr scans
          | [ Ast.Cmp { column = "c"; op = Ast.Eq; _ } ] -> incr probes
          | _ -> Alcotest.fail "unexpected where");
          (match aggregate with Ast.Sum _ -> incr sums | Ast.Count_star -> ())
      | _ -> Alcotest.fail "not an aggregate query")
    statements;
  Alcotest.(check bool) "both probes and scans" true (!probes > 30 && !scans > 30);
  Alcotest.(check bool) "both count and sum" true (!sums > 30 && !sums < 170)

let test_report_gen_deterministic () =
  let make () =
    Report_gen.segment ~table:"t" ~group_by:"a" ~sum_columns:[] ~n:50 ~value_range:10
      ~seed:8 ()
  in
  Alcotest.(check bool) "deterministic" true (make () = make ())

(* -- Data_gen --------------------------------------------------------------------- *)

let test_data_gen_shape () =
  let rows = Data_gen.uniform_rows ~columns:4 ~rows:100 ~value_range:10 ~seed:1 in
  Alcotest.(check int) "rows" 100 (Array.length rows);
  Array.iter
    (fun row ->
      Alcotest.(check int) "columns" 4 (Array.length row);
      Array.iter
        (fun v ->
          match v with
          | Tuple.Int i -> if i < 0 || i >= 10 then Alcotest.failf "value %d out of range" i
          | Tuple.Text _ -> Alcotest.fail "unexpected text")
        row)
    rows

let test_data_gen_deterministic () =
  let a = Data_gen.uniform_rows ~columns:2 ~rows:50 ~value_range:100 ~seed:5 in
  let b = Data_gen.uniform_rows ~columns:2 ~rows:50 ~value_range:100 ~seed:5 in
  let c = Data_gen.uniform_rows ~columns:2 ~rows:50 ~value_range:100 ~seed:6 in
  Alcotest.(check bool) "same seed" true (a = b);
  Alcotest.(check bool) "different seed" true (a <> c)

(* Property: generated workload mixes approximate their specification. *)
let generated_mix_fraction_prop =
  QCheck.Test.make ~name:"generated segments follow the mix" ~count:10
    (QCheck.make QCheck.Gen.(oneofl [ 'A'; 'B'; 'C'; 'D' ]))
    (fun letter ->
      let mix = Mix.of_letter letter in
      let spec = Spec.make [ { Spec.mix; n_queries = 4_000 } ] in
      let segment = (Spec.generate spec ~table:"t" ~value_range:100 ~seed:3).(0) in
      let dominant =
        List.fold_left
          (fun acc (col, w) -> match acc with
            | Some (_, best) when best >= w -> acc
            | _ -> Some (col, w))
          None (Mix.weights mix)
      in
      let dominant_col = match dominant with Some (c, _) -> c | None -> assert false in
      let count = ref 0 in
      Array.iter
        (fun statement ->
          match statement with
          | Ast.Select { where = [ Ast.Cmp { column; _ } ]; _ } when column = dominant_col ->
              incr count
          | _ -> ())
        segment;
      let frac = float_of_int !count /. 4_000.0 in
      frac > 0.50 && frac < 0.60)

(* -- Compress ------------------------------------------------------------------ *)

module Compress = Cddpd_workload.Compress

let test_compress_clusters_by_key () =
  let items = [| "x"; "y"; "x"; "z"; "y"; "x" |] in
  let c = Compress.cluster ~key:(fun s -> s) items in
  Alcotest.(check int) "three clusters" 3 (Compress.n_clusters c);
  (* Clusters are numbered by first occurrence; representatives are the
     first member of each. *)
  Alcotest.(check (array int)) "cluster ids" [| 0; 1; 0; 2; 1; 0 |] c.Compress.cluster_of;
  Alcotest.(check (array int)) "representatives" [| 0; 1; 3 |] c.Compress.representatives;
  Alcotest.(check (array int)) "populations" [| 3; 2; 1 |] c.Compress.counts

let test_compress_all_distinct_and_empty () =
  let distinct = Compress.cluster ~key:(fun s -> s) [| "a"; "b"; "c" |] in
  Alcotest.(check int) "no sharing" 3 (Compress.n_clusters distinct);
  let empty = Compress.cluster ~key:(fun s -> s) [||] in
  Alcotest.(check int) "empty input" 0 (Compress.n_clusters empty)

let compress_partition_prop =
  QCheck.Test.make ~name:"compression is a partition refining key equality" ~count:200
    QCheck.(array_of_size Gen.(int_bound 40) (string_gen_of_size Gen.(int_bound 3) Gen.printable))
    (fun items ->
      let c = Compress.cluster ~key:(fun s -> s) items in
      let n = Compress.n_clusters c in
      Array.length c.Compress.cluster_of = Array.length items
      && Array.for_all (fun id -> id >= 0 && id < n) c.Compress.cluster_of
      (* same key <-> same cluster *)
      && (let ok = ref true in
          Array.iteri
            (fun i x ->
              Array.iteri
                (fun j y ->
                  if (x = y) <> (c.Compress.cluster_of.(i) = c.Compress.cluster_of.(j))
                  then ok := false)
                items;
              ignore x; ignore i)
            items;
          !ok)
      (* representative of each item's cluster shares its key *)
      && Array.for_all2
           (fun id x -> items.(c.Compress.representatives.(id)) = x)
           c.Compress.cluster_of items
      (* counts sum to n items *)
      && Array.fold_left ( + ) 0 c.Compress.counts = Array.length items)

(* Clustering hashed cost identities through [cluster_by] gives the
   string-keyed clustering.  Keys are long (a shared 160-byte prefix, as
   cost keys share their table shape), drawn from a few values so most
   repeat, and every occurrence is built afresh: equal keys are
   physically distinct strings and distinct ids, except where an id is
   shared on purpose, as serve shares them.  A constant hash shows that
   equality alone decides membership. *)
module Cost_key = Cddpd_engine.Cost_key

let compress_ids_prop =
  QCheck.Test.make ~name:"id clustering = string clustering" ~count:200
    QCheck.(array_of_size Gen.(int_bound 60) (pair (int_bound 7) bool))
    (fun draws ->
      let prefix = String.make 160 'k' in
      let keys = Array.map (fun (v, _) -> Printf.sprintf "%s%d" prefix v) draws in
      let shared = Hashtbl.create 8 in
      let ids =
        Array.mapi
          (fun i (v, share) ->
            let fresh = Cost_key.id keys.(i) in
            if not share then fresh
            else
              match Hashtbl.find_opt shared v with
              | Some id -> id
              | None ->
                  Hashtbl.replace shared v fresh;
                  fresh)
          draws
      in
      let by_string = Compress.cluster_keys keys in
      by_string = Compress.cluster_by ~hash:Cost_key.id_hash ~equal:Cost_key.id_equal ids
      && by_string = Compress.cluster_by ~hash:(fun _ -> 0) ~equal:String.equal keys)

let () =
  Alcotest.run "workload"
    [
      ( "mix",
        [
          Alcotest.test_case "Table 1 weights" `Quick test_mix_table1_weights;
          Alcotest.test_case "normalisation" `Quick test_mix_normalisation;
          Alcotest.test_case "invalid mixes" `Quick test_mix_invalid;
          Alcotest.test_case "of_letter" `Quick test_mix_of_letter;
          Alcotest.test_case "sample query shape" `Quick test_mix_sample_query_shape;
          Alcotest.test_case "sample distribution" `Slow test_mix_sample_distribution;
        ] );
      ( "spec",
        [
          Alcotest.test_case "of_letters" `Quick test_spec_of_letters;
          Alcotest.test_case "deterministic generation" `Quick
            test_spec_generate_deterministic;
          Alcotest.test_case "generation shape" `Quick test_spec_generate_shape;
          Alcotest.test_case "flat generation" `Quick test_spec_generate_flat;
          Alcotest.test_case "invalid specs" `Quick test_spec_invalid;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "Table 2 letters" `Quick test_workload_letters_match_paper;
          Alcotest.test_case "spec sizes" `Quick test_workload_specs;
          Alcotest.test_case "by_name" `Quick test_workload_by_name;
          Alcotest.test_case "phase structure" `Quick test_workload_phases_structure;
        ] );
      ( "trace",
        [
          Alcotest.test_case "roundtrip" `Quick test_trace_roundtrip;
          Alcotest.test_case "comments and blanks" `Quick test_trace_comments_and_blanks;
          Alcotest.test_case "error line numbers" `Quick test_trace_error_line_number;
          Alcotest.test_case "file roundtrip" `Quick test_trace_file_roundtrip;
          Alcotest.test_case "missing file" `Quick test_trace_load_missing_file;
          Alcotest.test_case "segmentation" `Quick test_trace_segment;
        ] );
      ( "segmenter",
        [
          Alcotest.test_case "column profile" `Quick test_segmenter_profile;
          Alcotest.test_case "profile distance" `Quick test_segmenter_distance;
          Alcotest.test_case "finds major shifts" `Quick test_segmenter_finds_major_shifts;
          Alcotest.test_case "stable trace" `Quick test_segmenter_stable_trace;
          Alcotest.test_case "segments partition" `Quick test_segmenter_segments_partition;
          Alcotest.test_case "short trace" `Quick test_segmenter_short_trace;
        ] );
      ( "dml_gen",
        [
          Alcotest.test_case "blend share" `Quick test_dml_blend_share;
          Alcotest.test_case "columns preserved" `Quick test_dml_blend_preserves_columns;
          Alcotest.test_case "deterministic" `Quick test_dml_blend_deterministic;
          Alcotest.test_case "invalid fraction" `Quick test_dml_blend_invalid;
        ] );
      ( "report_gen",
        [
          Alcotest.test_case "shape" `Quick test_report_gen_shape;
          Alcotest.test_case "deterministic" `Quick test_report_gen_deterministic;
        ] );
      ( "data_gen",
        [
          Alcotest.test_case "shape" `Quick test_data_gen_shape;
          Alcotest.test_case "determinism" `Quick test_data_gen_deterministic;
          QCheck_alcotest.to_alcotest generated_mix_fraction_prop;
        ] );
      ( "compress",
        [
          Alcotest.test_case "clusters by key" `Quick test_compress_clusters_by_key;
          Alcotest.test_case "distinct and empty" `Quick
            test_compress_all_distinct_and_empty;
          QCheck_alcotest.to_alcotest compress_partition_prop;
          QCheck_alcotest.to_alcotest compress_ids_prop;
        ] );
    ]
