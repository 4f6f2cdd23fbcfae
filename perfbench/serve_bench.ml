(* The serve benchmark: replays a seeded raw-SQL trace through the serve
   loop, checks the outcome, and prints the end-to-end metrics (untraced
   replays) or the per-layer metrics (a traced run) as one JSON line.

     serve_bench.exe --workload steady|drift|writes --seed N --seconds S --trace 0|1

   README.md next to this file describes the workloads and the metrics. *)

module Server = Cddpd_serve.Server
module Obs = Cddpd_obs

(* Every run makes at least [min_replays] replays and [min_setups] timed
   set-ups (one per replay, the rest extra), so each reported time is a
   median of several. *)
let min_replays = 5
let min_setups = 15

(* Rounds of the host reference timed before each set-up and after each
   replay. *)
let reference_rounds = 20

(* A window percentile must sit at least this share of the windows away
   from the boundary between two action modes (see [check_modes]). *)
let mode_margin = 0.05

let median xs =
  let a = Array.copy xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0 else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest rank: the smallest sample with at least [q] of the samples at
   or below it. *)
let percentile sorted q =
  let n = Array.length sorted in
  sorted.(max 0 (int_of_float (Float.ceil (q *. float_of_int n)) - 1))

let ratio a b = if b = 0.0 then 0.0 else a /. b

type args = { workload : string; seed : int; seconds : float; trace : bool }

let usage () =
  Printf.eprintf "usage: serve_bench --workload %s --seed N --seconds S --trace 0|1\n"
    (String.concat "|" Traffic.names);
  exit 2

let parse_args () =
  let rec go acc = function
    | [] -> acc
    | "--workload" :: v :: rest -> go { acc with workload = v } rest
    | "--seed" :: v :: rest -> (
        match int_of_string_opt v with Some s -> go { acc with seed = s } rest | None -> usage ())
    | "--seconds" :: v :: rest -> (
        match float_of_string_opt v with
        | Some s when s > 0.0 -> go { acc with seconds = s } rest
        | _ -> usage ())
    | "--trace" :: ("0" | "1" as v) :: rest -> go { acc with trace = v = "1" } rest
    | _ -> usage ()
  in
  go
    { workload = ""; seed = 1; seconds = 10.0; trace = false }
    (List.tl (Array.to_list Sys.argv))

(* -- the correctness gate ------------------------------------------------- *)

let problems = ref []
let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt
let attempted = ref 0
let failed = ref 0

let gate (w : Traffic.t) label (o : Replay.outcome) =
  attempted := !attempted + o.Replay.attempted;
  failed := !failed + o.Replay.failed;
  Option.iter (problem "%s: %d statements failed, first %s" label o.Replay.failed) o.Replay.first_error;
  List.iter (problem "%s: %s" label)
    (Replay.check_report ~window:w.Traffic.window ~statements:(Array.length w.Traffic.texts)
       o.Replay.report)

(* Window times fall into modes by what the close did: no
   re-optimization, a kept design, a migration.  The mode mix is
   deterministic; a percentile whose rank lands near the boundary between
   two modes would jump between them on noise, so the workloads are sized
   to keep p50 and p90 inside one mode, and this check fails the run if
   they are not.  Modes are ordered by their median window time. *)
let check_modes (report : Server.report) (times : float array) =
  let samples =
    Array.to_list (Array.mapi (fun i t -> (Replay.mode_of report.Server.windows.(i), t)) times)
  in
  let n = float_of_int (List.length samples) in
  let modes =
    List.filter_map
      (fun m ->
        let times = List.filter_map (fun (m', t) -> if m = m' then Some t else None) samples in
        if times = [] then None
        else Some (m, median (Array.of_list times), float_of_int (List.length times) /. n))
      [ Replay.Quiet; Replay.Kept; Replay.Migrated ]
  in
  let modes = List.sort (fun (_, a, _) (_, b, _) -> compare a b) modes in
  let _, boundaries =
    List.fold_left (fun (acc, bs) (_, _, s) -> (acc +. s, (acc +. s) :: bs)) (0.0, []) modes
  in
  let boundaries = List.filter (fun b -> b < 1.0 -. 1e-9) boundaries in
  Printf.printf "window modes (fastest first): %s\n"
    (String.concat ", "
       (List.map
          (fun (m, t, s) -> Printf.sprintf "%s %.1f%% median %.3f ms" (Replay.mode_name m) (100.0 *. s) (1e3 *. t))
          modes));
  List.iter
    (fun q ->
      List.iter
        (fun b ->
          if Float.abs (q -. b) < mode_margin then
            problem "p%.0f rank sits %.3f from a mode boundary at %.3f (margin %.2f)" (100.0 *. q)
              (Float.abs (q -. b)) b mode_margin)
        boundaries)
    [ 0.5; 0.9 ]

(* -- output ---------------------------------------------------------------- *)

let json_number v = if Float.is_integer v then Printf.sprintf "%.0f" v else Printf.sprintf "%.17g" v

let print_result metrics =
  let correct = !problems = [] && !failed = 0 in
  List.iter (fun m -> prerr_endline ("FAILED: " ^ m)) (List.rev !problems);
  let metrics = if correct then metrics else [] in
  List.iter (fun (name, v, unit) -> Printf.printf "%-32s %16.6f %s\n" name v unit) metrics;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    (max 1 !attempted) !failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (json_number v) unit)
          metrics));
  exit (if correct then 0 else 1)

(* -- host-speed correction --------------------------------------------- *)

(* The host's speed changes in phases of seconds to minutes (README.md,
   "Noise controls").  A time taken while the host reference's rounds took
   [reference_s] is reported at the speed at which they take
   [Host.nominal_s].  A change to the program moves the corrected figure
   in full; a host phase moves the program and the rounds around it
   together. *)
let at_nominal t reference_s = t *. Host.nominal_s /. reference_s

(* The median round, taken right after a full major collection so that
   the program's garbage leaves the reference as little work as it can. *)
let reference () =
  Gc.full_major ();
  median (Host.rounds reference_rounds)

(* A set-up (after that collection, so that every replay starts from a
   heap with no garbage), its corrected time, and the reference taken
   just before it. *)
let timed_setup w =
  let reference_s = reference () in
  let server, setup_s = Replay.setup w in
  (server, at_nominal setup_s reference_s, reference_s)

(* -- the run --------------------------------------------------------------- *)

let () =
  let args = parse_args () in
  let w = match Traffic.make args.workload ~seed:args.seed with Some w -> w | None -> usage () in
  let statements = Array.length w.Traffic.texts in
  Printf.printf "workload %s seed %d: %d statements per replay, window %d, %d windows + %d residual\n%!"
    w.Traffic.name args.seed statements w.Traffic.window (statements / w.Traffic.window)
    (statements mod w.Traffic.window);
  (* Untraced replays, each on a fresh set-up, until the time is up. *)
  let deadline = Replay.now () +. args.seconds in
  let replays = ref [] in
  let references = ref [] in
  let alloc_words = ref 0.0 and major_collections = ref 0 and peak_heap_mb = ref 0.0 in
  while List.length !replays < min_replays || Replay.now () < deadline do
    let server, setup_s, reference_s = timed_setup w in
    let minor0, promoted0, major0 = Gc.counters () in
    let majors0 = (Gc.quick_stat ()).Gc.major_collections in
    let outcome = Replay.run server w.Traffic.texts in
    if !replays = [] then begin
      let minor1, promoted1, major1 = Gc.counters () in
      alloc_words := minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0);
      major_collections := (Gc.quick_stat ()).Gc.major_collections - majors0;
      (* After the first replay: the heap's high-water mark keeps creeping
         up over later replays, so a reading at the end would depend on
         how many replays fit in the run. *)
      peak_heap_mb :=
        float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0
    end;
    let after = reference () in
    replays := (setup_s, outcome, (reference_s +. after) /. 2.0) :: !replays;
    references := after :: reference_s :: !references
  done;
  let replays = List.rev !replays in
  let setups = ref (List.map (fun (s, _, _) -> s) replays) in
  while List.length !setups < min_setups do
    let _, setup_s, reference_s = timed_setup w in
    setups := setup_s :: !setups;
    references := reference_s :: !references
  done;
  let outcomes = List.map (fun (_, o, _) -> o) replays in
  List.iteri (fun i o -> gate w (Printf.sprintf "replay %d" i) o) outcomes;
  let first = List.hd outcomes in
  let digest = Replay.report_digest first.Replay.report in
  List.iteri
    (fun i (o : Replay.outcome) ->
      if Replay.report_digest o.Replay.report <> digest then
        problem "replay %d decided differently from replay 0" i)
    outcomes;
  let report = first.Replay.report in
  (* Every replay does the same work window by window (the digests
     agree), so window [i]'s time is the median of its corrected times
     over the replays: a stretch of fast or slow host time shorter than a
     replay spoils that replay's window, not the figure.  The same goes
     for the tail (the residual statements and [finish]).  Each replay is
     corrected by the mean of the references before and after it. *)
  let figures correct =
    let across f =
      median (Array.of_list (List.map (fun (_, o, r) -> correct (f o) r) replays))
    in
    let windows =
      Array.init (Array.length first.Replay.window_s) (fun i ->
          across (fun (o : Replay.outcome) -> o.Replay.window_s.(i)))
    in
    let replay_s = Array.fold_left ( +. ) (across (fun o -> o.Replay.tail_s)) windows in
    let sorted = Array.copy windows in
    Array.sort compare sorted;
    (windows, float_of_int statements /. replay_s, sorted)
  in
  let windows, stmts_per_s, sorted = figures at_nominal in
  check_modes report windows;
  let _, raw_rate, raw_sorted = figures (fun t _ -> t) in
  Printf.printf "uncorrected: stmts_per_s %.1f window_p50_ms %.4f window_p90_ms %.4f\n" raw_rate
    (1e3 *. percentile raw_sorted 0.5) (1e3 *. percentile raw_sorted 0.9);
  let reference_s = median (Array.of_list !references) in
  Printf.printf
    "%d replays of %d windows each; %d reoptimizations, %d deployments, %d rollbacks per \
     replay; host reference %.4f ms (nominal %.4f ms)\n%!"
    (List.length outcomes) (Array.length windows) report.Server.reoptimizations
    report.Server.deployments report.Server.rollbacks (1e3 *. reference_s)
    (1e3 *. Host.nominal_s);
  if not args.trace then
    print_result
      [
        ("stmts_per_s", stmts_per_s, "1/s");
        ("window_p50_ms", 1e3 *. percentile sorted 0.5, "ms");
        ("window_p90_ms", 1e3 *. percentile sorted 0.9, "ms");
        ( "io_per_stmt",
          float_of_int (report.Server.exec_logical_io + report.Server.trans_logical_io)
          /. float_of_int report.Server.statements,
          "pages" );
        ("peak_heap_mb", !peak_heap_mb, "MB");
        ("setup_s", median (Array.of_list !setups), "s");
      ];
  (* The traced run. *)
  let p1 = Probe.pass1 w in
  gate w "traced pass" p1.Probe.outcome;
  if Replay.report_digest p1.Probe.outcome.Replay.report <> digest then
    problem "the traced pass decided differently from the untraced replays";
  let p2 = Probe.pass2 w p1.Probe.outcome.Replay.report in
  List.iter (problem "probe pass: %s") p2.Probe.mismatches;
  let snap = p1.Probe.snapshot in
  let count name = float_of_int (Option.value ~default:0 (Obs.Snapshot.counter_value snap name)) in
  let span name = List.assoc name p1.Probe.spans in
  let n = float_of_int statements in
  let wall = p1.Probe.outcome.Replay.wall_s in
  let traced = p1.Probe.outcome.Replay.report in
  let reopt = traced.Server.reopt in
  let cache = reopt.Cddpd_core.Reopt.cache in
  let reuse = reopt.Cddpd_core.Reopt.reuse in
  let pool_hits = count "buffer_pool.hits" and pool_misses = count "buffer_pool.misses" in
  Printf.printf "cost cache: %d hits, %d misses, %d evictions, %d generations\n"
    cache.Cddpd_engine.Cost_cache.hits cache.Cddpd_engine.Cost_cache.misses
    cache.Cddpd_engine.Cost_cache.evictions cache.Cddpd_engine.Cost_cache.generations;
  print_result
    [
      ("serve.wall_s", wall, "s");
      ("serve.ingest_s", p1.Probe.ingest_s, "s");
      ("serve.close_s", p1.Probe.close_s, "s");
      ("serve.close_share", ratio p1.Probe.close_s wall, "ratio");
      ("serve.deploy_s", span "serve.deploy", "s");
      ("serve.reoptimizations", float_of_int traced.Server.reoptimizations, "count");
      ("serve.deployments", float_of_int traced.Server.deployments, "count");
      ("serve.rollbacks", float_of_int traced.Server.rollbacks, "count");
      ("sql.parse_s", p2.Probe.parse_s, "s");
      ( "sql.template_hit_ratio",
        ratio (count "sql.template_cache.hits")
          (count "sql.template_cache.hits" +. count "sql.template_cache.misses"),
        "ratio" );
      ("engine.key_s", p2.Probe.key_s, "s");
      ("engine.execute_s", p2.Probe.execute_s, "s");
      ( "engine.plan_memo_hit_ratio",
        ratio (count "plan_cache.hits") (count "plan_cache.hits" +. count "plan_cache.misses"),
        "ratio" );
      ("engine.stats_refresh_s", p2.Probe.stats_s, "s");
      ("engine.stats_refresh_share", ratio p2.Probe.stats_s p2.Probe.total_s, "ratio");
      ("engine.stats_refreshes", float_of_int p2.Probe.stats_refreshes, "count");
      ("engine.whatif_calls", count "cost_model.calls", "count");
      ( "engine.cost_cache_hit_ratio",
        ratio
          (float_of_int cache.Cddpd_engine.Cost_cache.hits)
          (float_of_int (cache.Cddpd_engine.Cost_cache.hits + cache.Cddpd_engine.Cost_cache.misses)),
        "ratio" );
      ("storage.logical_io_per_stmt", (pool_hits +. pool_misses) /. n, "pages");
      ("storage.pool_hit_ratio", ratio pool_hits (pool_hits +. pool_misses), "ratio");
      ("storage.evictions", count "buffer_pool.evictions", "count");
      ("core.build_s", span "problem.build", "s");
      ("core.exec_fill_s", span "problem.build.exec", "s");
      ("core.trans_fill_s", span "problem.build.trans", "s");
      ( "core.exec_columns_reused",
        float_of_int reuse.Cddpd_core.Problem.Reuse.exec_columns_reused,
        "count" );
      ( "core.clusters_recosted_ratio",
        ratio
          (float_of_int reuse.Cddpd_core.Problem.Reuse.clusters_recosted)
          (count "workload.clusters"),
        "ratio" );
      ("graph.solve_s", span "advisor.kaware", "s");
      ("graph.edges_relaxed", count "advisor.kaware.edges_relaxed", "count");
      ("gc.alloc_words_per_stmt", !alloc_words /. n, "words");
      ("gc.major_collections", float_of_int !major_collections, "count");
      ("host.reference_ms", 1e3 *. reference_s, "ms");
      ( "trace.overhead_ratio",
        ratio (n /. wall)
          (median (Array.of_list (List.map (fun (o : Replay.outcome) -> n /. o.Replay.wall_s) outcomes))),
        "ratio" );
    ]
