(* Benchmark harness: regenerates every table and figure of the paper
   (Voigt/Salem/Lehner, ICDE'08 workshops) and runs a Bechamel
   micro-benchmark per artifact.

   Usage:
     main.exe [table1] [table2] [figure3] [figure4] [ablation] [updates]
              [views] [space] [micro]
              [--rows N] [--value-range N] [--scale F] [--seed N]
              [--quick] [--no-metrics]
   With no experiment named, everything runs.  --quick shrinks the instance
   for a fast smoke run; --rows 2500000 --value-range 500000 approaches the
   paper's physical scale.  Each paper artifact runs its module's one
   [run], the same cells `cddpd experiment` runs: on one domain while
   instrumentation is on, on every core with --no-metrics.

   Result files: each suite with a machine-readable result (micro, solvers,
   experiments, configspace, serve, ingest) writes it to
   _build/bench/BENCH_<suite>.json and then gates it against the committed
   BENCH_<suite>.json in the working directory, leaf by leaf ({!emit}).
   Nothing here writes a committed file; `make bench-update` copies the
   fresh results over them after a passing run.

   Observability: instrumentation (lib/obs) is enabled for the run unless
   --no-metrics is given, and a JSON-lines metrics + span dump is written
   to _build/bench/BENCH_obs.json.  The Bechamel micro-benchmarks always
   run with instrumentation disabled so their timings stay comparable
   across runs regardless of flags. *)

module Setup = Cddpd_experiments.Setup
module Session = Cddpd_experiments.Session
module Table1 = Cddpd_experiments.Table1
module Table2 = Cddpd_experiments.Table2
module Figure3 = Cddpd_experiments.Figure3
module Figure4 = Cddpd_experiments.Figure4
module Ablation = Cddpd_experiments.Ablation
module Updates = Cddpd_experiments.Updates
module Views = Cddpd_experiments.Views
module Space_bound = Cddpd_experiments.Space_bound
module Solution = Cddpd_core.Solution
module Optimizer = Cddpd_core.Optimizer
module Simulator = Cddpd_core.Simulator
module Config_space = Cddpd_core.Config_space
module Problem = Cddpd_core.Problem
module Merging = Cddpd_core.Merging
module Staged_dag = Cddpd_graph.Staged_dag
module Kaware = Cddpd_graph.Kaware
module Ranking = Cddpd_graph.Ranking
module Design = Cddpd_catalog.Design
module Structure = Cddpd_catalog.Structure
module Index_def = Cddpd_catalog.Index_def
module Ast = Cddpd_sql.Ast
module Mix = Cddpd_workload.Mix
module Rng = Cddpd_util.Rng
module Json = Cddpd_util.Json

module Obs = Cddpd_obs

type options = {
  experiments : string list;
  config : Setup.config;
  metrics : bool;
}

let all_experiments =
  [ "table1"; "table2"; "figure3"; "figure4"; "ablation"; "updates"; "views";
    "space"; "micro"; "solvers"; "experiments"; "configspace"; "serve";
    "ingest" ]

let usage () =
  prerr_endline
    "usage: main.exe \
     [table1|table2|figure3|figure4|ablation|updates|views|space|micro|solvers|experiments|configspace|serve|ingest]... \
     [--rows N] [--value-range N] [--scale F] [--seed N] [--quick] \
     [--no-metrics]";
  exit 2

let parse_args () =
  let experiments = ref [] in
  let config = ref Setup.default_config in
  let metrics = ref true in
  let rec go args =
    match args with
    | [] -> ()
    | "--no-metrics" :: rest ->
        metrics := false;
        go rest
    | "--rows" :: v :: rest ->
        config := { !config with Setup.rows = int_of_string v };
        go rest
    | "--value-range" :: v :: rest ->
        config := { !config with Setup.value_range = int_of_string v };
        go rest
    | "--scale" :: v :: rest ->
        config := { !config with Setup.scale = float_of_string v };
        go rest
    | "--seed" :: v :: rest ->
        config := { !config with Setup.seed = int_of_string v };
        go rest
    | "--quick" :: rest ->
        config :=
          { !config with Setup.rows = 20_000; value_range = 4_000; scale = 0.2 };
        go rest
    | "all" :: rest ->
        experiments := List.rev_append all_experiments !experiments;
        go rest
    | name :: rest ->
        if List.mem name all_experiments then experiments := name :: !experiments
        else usage ();
        go rest
  in
  (try go (List.tl (Array.to_list Sys.argv)) with
  | Failure _ | Invalid_argument _ -> usage ());
  let experiments =
    match List.rev !experiments with [] -> all_experiments | list -> list
  in
  { experiments; config = !config; metrics = !metrics }

let banner title =
  Printf.printf "\n==== %s ====\n\n%!" title

(* -- Bechamel micro-benchmarks: one Test.make per table/figure ----------- *)

(* Timings must be comparable run-to-run and with pre-observability
   baselines: measure the uninstrumented path. *)
let uninstrumented f =
  let was_enabled = Obs.Registry.enabled () in
  Obs.Registry.disable ();
  Fun.protect ~finally:(fun () -> if was_enabled then Obs.Registry.enable ()) f

(* The serve benchmark's "writes" table: the paper's 4-column table (or
   [schema]), 5,000 rows of values below 1,000 (52 heap pages) in a
   24-frame pool, with [indexes] built. *)
let writes_micro_db ?(schema = Setup.schema) ~indexes () =
  let db = Cddpd_engine.Database.create ~pool_capacity:24 [ schema ] in
  let rng = Rng.create 17 in
  let width = List.length schema.Cddpd_catalog.Schema.columns in
  Cddpd_engine.Database.load db ~table:"t"
    (Array.init 5_000 (fun _ ->
         Array.init width (fun _ -> Cddpd_storage.Tuple.Int (Rng.int rng 1_000))));
  List.iter
    (fun columns ->
      Cddpd_engine.Database.build_index db (Cddpd_catalog.Index_def.make ~table:"t" ~columns))
    indexes;
  db

(* [sql] through [Database.execute] with its plan memoized, as serve runs
   a text's first execution, or with [prepared] through one prepared
   statement and the database's id for its key ([Database.cost_id]), as
   serve runs a repeated text; fails unless the plan's access path
   satisfies [path]. *)
let memoized_micro ?(prepared = false) db ~path sql =
  let module Database = Cddpd_engine.Database in
  let statement = Cddpd_sql.Parser.parse_exn sql in
  let statement_key = Cddpd_engine.Cost_key.statement (Database.table_stats db "t") statement in
  let run =
    if prepared then
      let handle = Database.prepare statement in
      let statement_key = Database.cost_id db statement_key in
      fun () -> Database.run ~statement_key db handle
    else fun () -> Database.execute ~statement_key ~skip_check:true db statement
  in
  (match (run ()).Cddpd_engine.Database.plan with
  | Some plan when path plan.Cddpd_engine.Plan.path -> ()
  | Some _ | None -> failwith ("micro: unexpected access path for " ^ sql));
  run

(* Index builds in the serve benchmark's two deployment shapes, each the
   median of a fixed number of [Database.migrate_to] runs, timed by hand
   rather than by Bechamel, so that every build is dropped again before
   the next.  [storage/index-build/writes] builds I(a,b) on the writes
   table (5,000 rows, 52 heap pages, 24 frames, so the scan misses);
   [storage/index-build/drift] builds I(a) on drift's 8-column table
   (20,000 rows of values below 50,000, 4,096 frames).  One more build,
   counted, gives the disk pages each build allocates and each drop
   releases.  The drop gives the tree's pages back, so every
   build-then-drop cycle must leave the disk holding the base table's
   heap pages and no more; a cycle that leaves more fails the run. *)
let index_build_runs = 31

type index_build = { ib_name : string; ib_ns : float; ib_pages : int; ib_released : int }

let time_index_build ~name db columns =
  let module Database = Cddpd_engine.Database in
  let module Disk = Cddpd_storage.Disk in
  let with_index =
    Cddpd_catalog.Design.add (Cddpd_catalog.Index_def.make ~table:"t" ~columns)
      Cddpd_catalog.Design.empty
  in
  let build () =
    let t0 = Unix.gettimeofday () in
    Database.migrate_to db with_index;
    let dt = Unix.gettimeofday () -. t0 in
    Database.migrate_to db Cddpd_catalog.Design.empty;
    let s = Disk.stats (Database.disk db) in
    let held = s.Disk.allocated - s.Disk.released and base = Database.page_count db "t" in
    if held > base then
      failwith
        (Printf.sprintf "micro: %s: a build-then-drop cycle leaves %d live disk pages, %d heap pages"
           name held base);
    dt
  in
  let times = Array.init index_build_runs (fun _ -> build ()) in
  Array.sort Float.compare times;
  let allocated = Obs.Registry.counter "disk.pages_allocated"
  and released = Obs.Registry.counter "disk.pages_released" in
  let allocated_before = Obs.Counter.value allocated
  and released_before = Obs.Counter.value released in
  Obs.Registry.with_enabled (fun () -> ignore (build ()));
  {
    ib_name = name;
    ib_ns = 1e9 *. times.(index_build_runs / 2);
    ib_pages = Obs.Counter.value allocated - allocated_before;
    ib_released = Obs.Counter.value released - released_before;
  }

let index_builds () =
  let drift_db =
    let schema =
      Cddpd_catalog.Schema.table "t"
        (List.map
           (fun c -> (c, Cddpd_catalog.Schema.Int_type))
           [ "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h" ])
    in
    let db = Cddpd_engine.Database.create ~pool_capacity:4_096 [ schema ] in
    Cddpd_engine.Database.load db ~table:"t"
      (Cddpd_workload.Data_gen.uniform_rows ~columns:8 ~rows:20_000 ~value_range:50_000
         ~seed:17);
    db
  in
  [
    time_index_build ~name:"storage/index-build/writes" (writes_micro_db ~indexes:[] ())
      [ "a"; "b" ];
    time_index_build ~name:"storage/index-build/drift" drift_db [ "a" ];
  ]

(* One warm continuous re-optimization in the shape of the serve
   benchmark's drift workload: a 4-window history of 250-statement
   windows of drift's 7-predicate template on the 8-column steady table,
   the leading column rotating a, b, c, d per window; each column has a
   pool of 48 texts, and every 20th statement is fresh.  Every run closes
   the next window of a ring of 5: the history slides by one window, so
   a reusing session keeps 3 of its 4 steps, and the candidates (derived
   once from all five windows) and the statistics never change, as on
   drift.  The incumbent holds I(a) and I(b), so, as serve raises its
   structure cap to the incumbent's size, configurations hold up to two
   structures.  Each run builds the problem through a {!Cddpd_core.Reopt}
   session, with the statement keys passed as serve passes them, and
   solves it k-aware at k = 2; it returns the build's and the whole
   close's wall seconds.  [reuse:false] is the from-scratch session. *)
let reopt_window_close ~reuse =
  let module Reopt = Cddpd_core.Reopt in
  let module Advisor = Cddpd_core.Advisor in
  let module Cost_key = Cddpd_engine.Cost_key in
  let schema =
    Cddpd_catalog.Schema.table "t"
      (List.map
         (fun c -> (c, Cddpd_catalog.Schema.Int_type))
         [ "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h" ])
  in
  let db = writes_micro_db ~schema ~indexes:[ [ "a" ]; [ "b" ] ] () in
  let stats = Cddpd_engine.Database.table_stats db "t" in
  let rng = Rng.create 23 in
  let text lead =
    let value = Rng.int rng 1_000 and lo = Rng.int rng 1_000 in
    Cddpd_sql.Parser.parse_exn
      (Printf.sprintf
         "SELECT a, b FROM t WHERE %s = %d AND c BETWEEN %d AND %d AND d = %d AND e = %d \
          AND f = %d AND g = %d AND h = %d"
         lead value lo (lo + 40)
         (1 + (value mod 97))
         (1 + (lo mod 89))
         (1 + (value mod 83))
         (1 + (lo mod 79))
         (1 + (value mod 73)))
  in
  let pools = List.map (fun lead -> (lead, Array.init 48 (fun _ -> text lead))) [ "a"; "b"; "c"; "d" ] in
  let windows =
    Array.map
      (fun lead ->
        Array.init 250 (fun i ->
            if i mod 20 = 0 then text lead else (List.assoc lead pools).(i mod 48)))
      [| "a"; "b"; "c"; "d"; "a" |]
  in
  let keys = Array.map (Array.map (fun s -> Cost_key.id (Cost_key.statement stats s))) windows in
  let candidates =
    Cddpd_core.Candidates.structures_from_statements schema ~composite_pairs:2
      (Array.concat (Array.to_list windows))
  in
  let session = Reopt.create ~reuse db in
  let next = ref 0 in
  fun () ->
    let history = Array.init 4 (fun j -> (!next + j) mod Array.length windows) in
    incr next;
    let steps = Array.map (fun w -> windows.(w)) history in
    let statement_keys = Array.concat (Array.to_list (Array.map (fun w -> keys.(w)) history)) in
    let request =
      {
        (Advisor.default_request ~steps ~table:"t") with
        Advisor.candidates = Some candidates;
        max_structures_per_config = Some 2;
        initial = Cddpd_engine.Database.current_design db;
        count_initial_change = true;
      }
    in
    let t0 = Unix.gettimeofday () in
    let problem = Reopt.build_problem ~statement_keys session request in
    let t1 = Unix.gettimeofday () in
    (match Reopt.solve session problem ~method_name:Solution.Kaware ~k:2 with
    | Ok _ -> ()
    | Error _ -> failwith "micro: reopt-window solve failed");
    (t1 -. t0, Unix.gettimeofday () -. t0)

(* The build's share of a re-optimization, per arm: medians over a fixed
   number of closes after one warm-up close. *)
let reopt_window_runs = 25

let reopt_window_share ~reuse =
  let close = reopt_window_close ~reuse in
  ignore (close ());
  let runs = Array.init reopt_window_runs (fun _ -> close ()) in
  let median f =
    let a = Array.map f runs in
    Array.sort Float.compare a;
    a.(reopt_window_runs / 2)
  in
  (median fst, median snd)

let micro (session : Session.t) =
  uninstrumented @@ fun () ->
  let open Bechamel in
  let problem = session.Session.problem_w1 in
  let solve method_name k () =
    match Optimizer.solve problem ~method_name ?k () with
    | Ok _ -> ()
    | Error _ -> failwith "micro: solver failed"
  in
  (* A one-segment replay instance for the Figure 3 micro-bench: replaying
     the full workload per sample would take minutes. *)
  let segment = session.Session.steps_w1.(0) in
  let schedule =
    match Optimizer.solve problem ~method_name:Solution.Kaware ~k:2 () with
    | Ok s -> Solution.schedule problem s
    | Error _ -> failwith "micro: kaware failed"
  in
  let replay_segment () =
    ignore
      (Simulator.run session.Session.db ~steps:[| segment |]
         ~schedule:[| schedule.(0) |])
  in
  let sample_mix =
    let rng = Rng.create 99 in
    fun () ->
      for _ = 1 to 100 do
        ignore (Mix.sample_query Mix.mix_a ~table:"t" ~value_range:1000 rng)
      done
  in
  (* SQL front-end micros: the lexer's scratch-buffer/int fast paths and
     the template cache, over a pool of texts shaped like serve traffic. *)
  let sql_pool =
    Array.init 64 (fun i ->
        Printf.sprintf
          "SELECT a, b FROM t WHERE a = %d AND c BETWEEN %d AND %d AND d = 'v%d'"
          (1 + (i * 1_031 mod 50_000))
          (1 + (i * 157 mod 50_000))
          (41 + (i * 157 mod 50_000))
          (i mod 7))
  in
  let tokenize_pool () =
    Array.iter (fun s -> ignore (Cddpd_sql.Lexer.tokenize s)) sql_pool
  in
  let parse_pool () =
    Array.iter
      (fun s ->
        match Cddpd_sql.Parser.parse s with
        | Ok _ -> ()
        | Error _ -> failwith "micro: parse failed")
      sql_pool
  in
  let parse_cached_pool =
    let cache = Cddpd_sql.Template.create () in
    fun () ->
      Array.iter
        (fun s ->
          match Cddpd_sql.Parser.parse_cached cache s with
          | Ok _ -> ()
          | Error _ -> failwith "micro: parse_cached failed")
        sql_pool
  in
  (* Storage micros: the scan kernels under the serve benchmark's
     "writes" shape — the paper's 4-column table, 5,000 rows (52 heap
     pages) in a 24-frame pool, a point predicate matching ~5 rows — so
     every run also pays the pool's misses.  Statements run
     through [Database.execute] with their plan memoized, as serve does. *)
  let scan_micro ?prepared ?schema ~indexes ~path sql =
    let run = memoized_micro ?prepared (writes_micro_db ?schema ~indexes ()) ~path sql in
    fun () -> ignore (run ())
  in
  let full_scan_path = function Cddpd_engine.Plan.Full_scan -> true | _ -> false in
  let index_only_path = function Cddpd_engine.Plan.Index_only_scan _ -> true | _ -> false in
  let heap_full_scan = scan_micro ~indexes:[] ~path:full_scan_path "SELECT a FROM t WHERE b = 17" in
  (* The index-only scan of I(a,b) for an equality on [b]: each leaf's
     synopsis decides whether its entry loop runs at all; every leaf is
     still fetched.  One counted run (after a first that builds the
     synopses) gives the leaves fetched and skipped per scan. *)
  let index_only_scan, index_only_fetched, index_only_skipped =
    let run =
      memoized_micro (writes_micro_db ~indexes:[ [ "a"; "b" ] ] ()) ~path:index_only_path
        "SELECT b FROM t WHERE b = 17"
    in
    let fetched = Obs.Registry.counter "btree.leaves_fetched"
    and skipped = Obs.Registry.counter "btree.leaves_skipped" in
    let f0 = Obs.Counter.value fetched and s0 = Obs.Counter.value skipped in
    Obs.Registry.with_enabled (fun () -> ignore (run ()));
    ( (fun () -> ignore (run ())),
      Obs.Counter.value fetched - f0,
      Obs.Counter.value skipped - s0 )
  in
  (* The heap full scan with an equality on [c]: each heap page's
     synopsis decides whether its record loop runs at all; every page is
     still fetched.  One counted run gives the pages fetched and skipped
     per scan, reported next to the table. *)
  let heap_eq_scan, heap_eq_fetched, heap_eq_skipped =
    let run =
      memoized_micro (writes_micro_db ~indexes:[] ()) ~path:full_scan_path
        "SELECT c FROM t WHERE c = 17"
    in
    let fetched = Obs.Registry.counter "buffer_pool.scan_fetches"
    and skipped = Obs.Registry.counter "heap_file.pages_skipped" in
    let f0 = Obs.Counter.value fetched and s0 = Obs.Counter.value skipped in
    Obs.Registry.with_enabled (fun () -> ignore (run ()));
    ( (fun () -> ignore (run ())),
      Obs.Counter.value fetched - f0,
      Obs.Counter.value skipped - s0 )
  in
  (* A full scan of the 52-page heap right after an index-only scan of
     I(a,b) has left the pool's frames referenced: the scan's victim search
     takes only the frames nobody still wants.  One run is the pair; the
     full scan's disk reads are reported next to the table. *)
  let small_pool_scan, small_pool_reads, small_pool_pages =
    let db = writes_micro_db ~indexes:[ [ "a"; "b" ] ] () in
    let index_only = memoized_micro db ~path:index_only_path "SELECT b FROM t WHERE b = 17" in
    let full = memoized_micro db ~path:full_scan_path "SELECT c FROM t WHERE c = 17" in
    let run () =
      ignore (index_only ());
      full ()
    in
    let reads = (run ()).Cddpd_engine.Database.physical_io in
    ((fun () -> ignore (run ())), reads, Cddpd_engine.Database.page_count db "t")
  in
  (* The serve benchmark's steady template: seven predicates over an
     8-column table. *)
  let steady_schema =
    Cddpd_catalog.Schema.table "t"
      (List.map
         (fun c -> (c, Cddpd_catalog.Schema.Int_type))
         [ "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h" ])
  and steady_sql =
    "SELECT a, b FROM t WHERE a = 17 AND c BETWEEN 100 AND 140 AND d = 18 AND e = 12 \
     AND f = 35 AND g = 22 AND h = 18"
  in
  (* The steady template with I(a) and I(b), answered by a non-covering
     seek on I(a) straight from the warm plan memo; [prepared-seek] runs
     it through its prepared statement, which compiles nothing after the
     first run. *)
  let steady_seek ?prepared () =
    scan_micro ?prepared ~schema:steady_schema
      ~indexes:[ [ "a" ]; [ "b" ] ]
      ~path:(function Cddpd_engine.Plan.Index_seek _ -> true | _ -> false)
      steady_sql
  in
  let memoized_seek = steady_seek () and prepared_seek = steady_seek ~prepared:true () in
  (* Window close's clustering pass over one window of the serve
     benchmark's drift traffic: 1,000 cost keys (117 bytes each) of its
     7-predicate template, drawn from 48 pooled texts with every 20th
     fresh, each distinct key shared as serve shares it.
     [close-window-strings] clusters the key strings, hashing each one;
     [close-window-ids] clusters their ids ({!Cddpd_engine.Cost_key.id}),
     reading the hash each id stored when it was made. *)
  let close_window_strings, close_window_ids =
    let module Cost_key = Cddpd_engine.Cost_key in
    let module Compress = Cddpd_workload.Compress in
    let db =
      writes_micro_db ~schema:steady_schema ~indexes:[ [ "a" ]; [ "b" ] ] ()
    in
    let stats = Cddpd_engine.Database.table_stats db "t" in
    let rng = Rng.create 11 in
    let text () =
      let v () = Rng.int rng 1_000 in
      let lo = v () in
      Printf.sprintf
        "SELECT a, b FROM t WHERE b = %d AND c BETWEEN %d AND %d AND d = %d AND e = %d \
         AND f = %d AND g = %d AND h = %d"
        (v ()) lo (lo + 40) (v ()) (v ()) (v ()) (v ()) (v ())
    in
    let pool = Array.init 48 (fun _ -> text ()) in
    let strings = Hashtbl.create 64 and ids = Cost_key.Id_tbl.create 64 in
    let keys =
      Array.init 1_000 (fun i ->
          let sql = if i mod 20 = 0 then text () else pool.(i mod 48) in
          let key = Cost_key.statement stats (Cddpd_sql.Parser.parse_exn sql) in
          match Hashtbl.find_opt strings key with
          | Some shared -> shared
          | None ->
              Hashtbl.add strings key key;
              key)
    in
    let key_ids =
      Array.map
        (fun key ->
          let id = Cost_key.id key in
          match Cost_key.Id_tbl.find_opt ids id with
          | Some shared -> shared
          | None ->
              Cost_key.Id_tbl.add ids id id;
              id)
        keys
    in
    ( (fun () -> ignore (Compress.cluster_keys keys)),
      fun () ->
        ignore (Compress.cluster_by ~hash:Cost_key.id_hash ~equal:Cost_key.id_equal key_ids) )
  in
  (* One statement's cost identity as serve makes it for a fresh text:
     the packed key ({!Cddpd_engine.Cost_key.statement}) and its hashed
     id.  [cost-key/steady] keys the steady template (seven predicates
     over the 8-column table), [cost-key/w1] a paper W1 point query (one
     predicate over the 4-column table). *)
  let cost_key_micro ?schema sql =
    let module Cost_key = Cddpd_engine.Cost_key in
    let db = writes_micro_db ?schema ~indexes:[] () in
    let stats = Cddpd_engine.Database.table_stats db "t" in
    let statement = Cddpd_sql.Parser.parse_exn sql in
    fun () -> ignore (Cost_key.id (Cost_key.statement stats statement))
  in
  let cost_key_steady = cost_key_micro ~schema:steady_schema steady_sql
  and cost_key_w1 = cost_key_micro "SELECT a FROM t WHERE a = 17" in
  let tests =
    Test.make_grouped ~name:"cddpd"
      [
        Test.make ~name:"storage/heap-full-scan" (Staged.stage heap_full_scan);
        Test.make ~name:"storage/index-only-scan" (Staged.stage index_only_scan);
        Test.make ~name:"storage/heap-eq-scan" (Staged.stage heap_eq_scan);
        Test.make ~name:"storage/small-pool-scan" (Staged.stage small_pool_scan);
        Test.make ~name:"engine/memoized-seek" (Staged.stage memoized_seek);
        Test.make ~name:"engine/prepared-seek" (Staged.stage prepared_seek);
        Test.make ~name:"serve/close-window-strings" (Staged.stage close_window_strings);
        Test.make ~name:"serve/close-window-ids" (Staged.stage close_window_ids);
        Test.make ~name:"cost-key/steady" (Staged.stage cost_key_steady);
        Test.make ~name:"cost-key/w1" (Staged.stage cost_key_w1);
        Test.make ~name:"serve/reopt-window"
          (Staged.stage
             (let close = reopt_window_close ~reuse:true in
              fun () -> ignore (close ())));
        Test.make ~name:"serve/reopt-window-scratch"
          (Staged.stage
             (let close = reopt_window_close ~reuse:false in
              fun () -> ignore (close ())));
        Test.make ~name:"sql/tokenize-64" (Staged.stage tokenize_pool);
        Test.make ~name:"sql/parse-64" (Staged.stage parse_pool);
        Test.make ~name:"sql/parse-cached-64" (Staged.stage parse_cached_pool);
        Test.make ~name:"table1/mix-sample-100" (Staged.stage sample_mix);
        Test.make ~name:"table2/unconstrained"
          (Staged.stage (solve Solution.Unconstrained None));
        Test.make ~name:"table2/kaware-k2" (Staged.stage (solve Solution.Kaware (Some 2)));
        Test.make ~name:"figure3/replay-1-segment" (Staged.stage replay_segment);
        Test.make ~name:"figure4/kaware-k18" (Staged.stage (solve Solution.Kaware (Some 18)));
        Test.make ~name:"figure4/merging-k2" (Staged.stage (solve Solution.Merging (Some 2)));
        Test.make ~name:"ablation/greedy-seq-k2"
          (Staged.stage (solve Solution.Greedy_seq (Some 2)));
        Test.make ~name:"ablation/hybrid-k10" (Staged.stage (solve Solution.Hybrid (Some 10)));
        Test.make ~name:"updates/blend-1-segment"
          (Staged.stage (fun () ->
               ignore
                 (Cddpd_workload.Dml_gen.blend ~update_fraction:0.3
                    ~value_range:session.Session.config.Setup.value_range ~seed:5
                    session.Session.steps_w1.(0))));
        Test.make ~name:"views/maintain-100-inserts"
          (Staged.stage
             (let schema = Setup.schema in
              let pool =
                Cddpd_storage.Buffer_pool.create ~capacity:512
                  (Cddpd_storage.Disk.create ())
              in
              let heap = Cddpd_storage.Heap_file.create pool in
              let rng = Rng.create 3 in
              for _ = 1 to 2000 do
                ignore
                  (Cddpd_storage.Heap_file.insert heap
                     (Array.init 4 (fun _ -> Cddpd_storage.Tuple.Int (Rng.int rng 50))))
              done;
              let view =
                Cddpd_engine.Mat_view.build pool schema heap
                  (Cddpd_catalog.View_def.make ~table:"t" ~group_by:"a")
              in
              fun () ->
                for _ = 1 to 100 do
                  Cddpd_engine.Mat_view.apply_insert view
                    (Array.init 4 (fun _ -> Cddpd_storage.Tuple.Int (Rng.int rng 50)))
                done));
      ]
  in
  let builds = index_builds () in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some (est :: _) -> est
          | Some [] | None -> nan
        in
        (name, ns) :: acc)
      results
      (List.map (fun b -> ("cddpd/" ^ b.ib_name, b.ib_ns)) builds)
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let table =
    Cddpd_util.Text_table.create
      [ ("micro-benchmark", Cddpd_util.Text_table.Left); ("ns/run", Cddpd_util.Text_table.Right) ]
  in
  List.iter
    (fun (name, ns) ->
      Cddpd_util.Text_table.add_row table [ name; Printf.sprintf "%.0f" ns ])
    rows;
  Cddpd_util.Text_table.print table;
  Printf.printf "storage/small-pool-scan: %d disk reads per full scan of %d heap pages\n"
    small_pool_reads small_pool_pages;
  Printf.printf "storage/heap-eq-scan: %d pages fetched, %d pages skipped per scan\n"
    heap_eq_fetched heap_eq_skipped;
  Printf.printf "storage/index-only-scan: %d leaves fetched, %d leaves skipped per scan\n"
    index_only_fetched index_only_skipped;
  List.iter
    (fun b ->
      Printf.printf
        "%s: %.1f us per build (median of %d), %d disk pages allocated per build, %d released \
         per drop\n"
        b.ib_name (b.ib_ns /. 1e3) index_build_runs b.ib_pages b.ib_released)
    builds;
  List.iter
    (fun (name, reuse) ->
      let build_s, close_s = reopt_window_share ~reuse in
      Printf.printf
        "%s: median close %.3f ms, of which Problem.build %.3f ms (%.0f%%), over %d closes\n"
        name (1e3 *. close_s) (1e3 *. build_s) (100. *. build_s /. close_s) reopt_window_runs)
    [ ("serve/reopt-window", true); ("serve/reopt-window-scratch", false) ];
  rows

(* -- machine-readable micro summary (BENCH_micro.json) -------------------- *)

(* Median wall-clock of several Problem.build runs under the session's
   workload: the headline number of the perf trajectory. *)
let problem_build_runs = 3

let time_problem_build (session : Session.t) =
  let times =
    Array.init problem_build_runs (fun _ ->
        let t0 = Unix.gettimeofday () in
        ignore (Setup.build_problem session.Session.db ~steps:session.Session.steps_w1);
        Unix.gettimeofday () -. t0)
  in
  Array.sort Float.compare times;
  times.(problem_build_runs / 2)

(* -- result files and the baseline gate ---------------------------------- *)

let bench_out = "_build/bench"

(* The leaves a run measures rather than computes: wall times (a key with
   the word "s", seconds: [median_s], [reopt_s_from_scratch],
   [ingest_statements_per_s]), ratios of wall times, the host's core count,
   and an experiments arm's status (an arm that needs more cores than the
   host has is skipped).  This is the one list: every other leaf of every
   committed baseline is deterministic and gated exactly. *)
let measured key =
  List.exists (String.equal "s") (String.split_on_char '_' key)
  || List.exists (String.equal key)
       [ "speedup"; "parallel_speedup"; "throughput_ratio"; "cores"; "status" ]

(* Writes [json] to _build/bench/BENCH_<suite>.json, then gates it
   against the committed BENCH_<suite>.json: same keys, same array
   lengths, every leaf but the {!measured} ones equal as printed.  A
   failing gate names every moved leaf (up to {!Json.diff}'s cap), so a
   deliberate baseline move can be reviewed leaf by leaf.  A suite with
   no committed file is not gated. *)
let emit suite json =
  let name = Printf.sprintf "BENCH_%s.json" suite in
  let path = Filename.concat bench_out name in
  Out_channel.with_open_bin path (fun oc -> output_string oc (Json.to_string json ^ "\n"));
  Printf.printf "\n(wrote %s)\n%!" path;
  if Sys.file_exists name then
    match Json.parse (In_channel.with_open_bin name In_channel.input_all) with
    | Error message -> failwith (Printf.sprintf "%s: %s in %s" suite message name)
    | Ok recorded -> (
        match Json.diff ~skip:measured ~recorded json with
        | [] -> Printf.printf "(every deterministic leaf matches %s)\n%!" name
        | moved ->
            List.iter (fun message -> Printf.eprintf "%s: %s in %s\n" suite message name) moved;
            failwith (Printf.sprintf "%s: the leaves above differ from %s" suite name))
  else Printf.printf "(no committed %s: not gated)\n%!" name

(* -- statistics-refresh micro --------------------------------------------- *)

(* One statistics refresh after a single-row-rewriting UPDATE on the
   paper's 5,000 x 4 table (value range 1,000, the 24-frame pool of
   perfbench's writes workload): the layer number behind that workload's
   refresh share.  Each refresh is cross-checked against a full rescan —
   every live row read through the pool, each column sorted and bucketed
   by [Histogram.build] — whose time is reported next to it. *)
let stats_refresh_runs = 100

type stats_refresh = { refresh_s : float; rescan_s : float }

let rescan_stats db table =
  let schema = Option.get (Cddpd_engine.Database.schema db table) in
  let positions = List.init (Cddpd_catalog.Schema.arity schema) Fun.id in
  let rows = ref [] in
  Cddpd_engine.Database.scan db table (fun tuple -> rows := tuple :: !rows);
  let rows = Array.of_list !rows in
  Cddpd_engine.Table_stats.make ~row_count:(Array.length rows)
    ~page_count:(Cddpd_engine.Database.page_count db table)
    ~histograms:
      (List.map2
         (fun (c : Cddpd_catalog.Schema.column) pos ->
           ( c.Cddpd_catalog.Schema.name,
             Cddpd_engine.Histogram.build
               (Array.map (fun row -> Cddpd_storage.Tuple.int_exn row.(pos)) rows) ))
         schema.Cddpd_catalog.Schema.columns positions)

let time_stats_refresh () =
  let module Database = Cddpd_engine.Database in
  let db =
    Setup.make_database
      { Setup.test_config with Setup.rows = 5_000; value_range = 1_000; pool_capacity = 24 }
  in
  let rng = Rng.create 17 in
  let refresh = Array.make stats_refresh_runs 0.0 in
  let rescan = Array.make stats_refresh_runs 0.0 in
  let timed f =
    let t0 = Unix.gettimeofday () in
    let x = f () in
    (x, Unix.gettimeofday () -. t0)
  in
  for i = 0 to stats_refresh_runs - 1 do
    ignore
      (Database.execute_sql db
         (Printf.sprintf "UPDATE t SET b = %d WHERE a = %d" (1 + Rng.int rng 1_000)
            (1 + Rng.int rng 1_000)));
    let stats, dt = timed (fun () -> Database.table_stats db "t") in
    refresh.(i) <- dt;
    let reference, dt = timed (fun () -> rescan_stats db "t") in
    rescan.(i) <- dt;
    if
      not
        (String.equal
           (Cddpd_engine.Table_stats.fingerprint stats)
           (Cddpd_engine.Table_stats.fingerprint reference))
    then failwith "micro: refreshed statistics differ from a full rescan"
  done;
  let median a =
    Array.sort Float.compare a;
    a.(Array.length a / 2)
  in
  { refresh_s = median refresh; rescan_s = median rescan }

let micro_json ~(options : options) ~build_s ~stats_refresh rows =
  let config = options.config in
  Json.Object
    [
      ("schema", Json.String "cddpd-bench-micro/3"); ("rows", Json.int config.Setup.rows);
      ("value_range", Json.int config.Setup.value_range);
      ("scale", Json.fixed 3 config.Setup.scale); ("seed", Json.int config.Setup.seed);
      ("cores", Json.int (Cddpd_util.Parallel.ncpu ()));
      ( "problem_build",
        Json.Object [ ("runs", Json.int problem_build_runs); ("median_s", Json.fixed 3 build_s) ] );
      ( "stats_refresh",
        Json.Object
          [
            ("rows", Json.int 5000); ("columns", Json.int 4); ("runs", Json.int stats_refresh_runs);
            ("median_s", Json.fixed 6 stats_refresh.refresh_s);
            ("rescan_median_s", Json.fixed 6 stats_refresh.rescan_s);
            ("fingerprints_equal", Json.Bool true);
          ] );
      ( "micro",
        Json.Array
          (List.map
             (fun (name, ns) ->
               Json.Object [ ("name", Json.String name); ("ns_per_run", Json.fixed 3 ns) ])
             rows) );
    ]

(* -- solvers suite: constrained solvers over large design spaces ---------- *)

(* Synthetic instances spanning four design-space sizes, built through the
   real Config_space/Problem machinery: n = 7 is the paper's space (empty
   design + one singleton per candidate), n = 64/256/1024 are the full
   power sets of 6/8/10 candidate indexes.  Costs are a deterministic
   phased workload — each phase has one hot index that cuts execution
   cost, every carried structure adds maintenance overhead, and
   transitions pay per structure built — so the unconstrained optimum
   switches with the phases and the merging heuristic lands close enough
   to the constrained optimum to make a useful branch-and-bound seed.
   Nothing is random: reruns time the same instance. *)

let solvers_stages = 12
let solvers_phase_len = 4
let solvers_runs = 5
let solvers_ks = [ 1; 2; 3 ]
let solvers_ranking_max_n = 64
let solvers_ranking_max_queue = 262_144

let solvers_candidates m =
  List.init m (fun i ->
      Structure.index (Index_def.make ~table:"t" ~columns:[ Printf.sprintf "c%d" i ]))

let solvers_space ~candidates ~max_structures =
  Config_space.enumerate ~candidates ?max_structures ~size_of:(fun _ -> 1) ()

let solvers_problem ~candidates space =
  let n = Config_space.size space in
  let designs = Config_space.designs space in
  let m = List.length candidates in
  let hot = Array.of_list candidates in
  let exec =
    Array.init solvers_stages (fun s ->
        let hot = hot.((s / solvers_phase_len) mod m) in
        Array.init n (fun c ->
            let design = designs.(c) in
            let base = if Design.mem_structure hot design then 40.0 else 100.0 in
            let overhead = 4.0 *. float_of_int (Design.cardinality design) in
            (* Tie-breaking noise, injective over configs at every stage
               (odd multiplier mod 2^10 permutes config ids): exact cost
               ties would keep whole families of equivalent states alive
               under the bound pruner and hide its effect.  Dyadic values,
               so the arithmetic stays exact. *)
            let jitter =
              float_of_int (((c * 2654435761) + (s * 97)) land 1023) *. 0.0078125
            in
            base +. overhead +. jitter))
  in
  let trans =
    Array.init n (fun i ->
        Array.init n (fun j ->
            if i = j then 0.0
            else
              let added =
                Design.fold
                  (fun st acc ->
                    if Design.mem_structure st designs.(i) then acc else acc + 1)
                  designs.(j) 0
              in
              15.0 *. float_of_int added))
  in
  let steps =
    Array.make solvers_stages
      [| Ast.Select { Ast.projection = Ast.Star; table = "t"; where = [] } |]
  in
  Problem.of_matrices ~steps ~space
    ~initial:(Config_space.id_of_exn space Design.empty)
    ~exec ~trans ()

type solvers_ranking_outcome =
  | Rk_found of { rank : int; queue_peak : int }
  | Rk_gave_up of { reason : string; examined : int; queue_peak : int }

type solvers_entry = {
  sv_n : int;
  sv_k : int;
  sv_baseline_s : float;
  sv_pruned_s : float;
  sv_states_pruned : int;
  sv_states_alive : int;
  sv_ranking : (float * solvers_ranking_outcome) option;
}

let median_of times =
  let times = Array.copy times in
  Array.sort Float.compare times;
  times.(Array.length times / 2)

let time_runs f =
  median_of
    (Array.init solvers_runs (fun _ ->
         let t0 = Unix.gettimeofday () in
         ignore (Sys.opaque_identity (f ()));
         Unix.gettimeofday () -. t0))

(* One instrumented (untimed) run bracketed by snapshots; the timed runs
   stay uninstrumented so the accounting pass can't pollute them. *)
let with_counters f =
  Obs.Registry.enable ();
  let before = Obs.Snapshot.capture () in
  ignore (Sys.opaque_identity (f ()));
  let delta = Obs.Snapshot.diff ~before ~after:(Obs.Snapshot.capture ()) in
  Obs.Registry.disable ();
  delta

let snapshot_counter delta name =
  Option.value ~default:0 (Obs.Snapshot.counter_value delta name)

let solvers_suite () =
  let was_enabled = Obs.Registry.enabled () in
  Obs.Registry.disable ();
  Fun.protect
    ~finally:(fun () -> if was_enabled then Obs.Registry.enable ())
  @@ fun () ->
  let spaces =
    [
      (solvers_candidates 6, Some 1);  (* n = 7: the paper's space *)
      (solvers_candidates 6, None);  (* n = 64 *)
      (solvers_candidates 8, None);  (* n = 256 *)
      (solvers_candidates 10, None);  (* n = 1024 *)
    ]
  in
  let table =
    Cddpd_util.Text_table.create
      [
        ("n", Cddpd_util.Text_table.Right);
        ("k", Cddpd_util.Text_table.Right);
        ("baseline ms", Cddpd_util.Text_table.Right);
        ("pruned ms", Cddpd_util.Text_table.Right);
        ("speedup", Cddpd_util.Text_table.Right);
        ("states pruned", Cddpd_util.Text_table.Right);
        ("ranking ms", Cddpd_util.Text_table.Right);
        ("rank", Cddpd_util.Text_table.Right);
        ("queue peak", Cddpd_util.Text_table.Right);
      ]
  in
  let entries =
    List.concat_map
      (fun (candidates, max_structures) ->
        let space = solvers_space ~candidates ~max_structures in
        let problem = solvers_problem ~candidates space in
        let n = Config_space.size space in
        let graph = Problem.to_graph problem in
        let initial = Problem.initial_for_counting problem in
        let _, unconstrained_path = Staged_dag.shortest_path graph in
        List.map
          (fun k ->
            (* The bound is a byproduct of the Merging heuristic, which the
               advisor pipeline computes anyway, so the timed region covers
               exactly the [Kaware.solve] call the acceptance criterion
               names. *)
            let ub = Staged_dag.path_cost graph (Merging.refine problem ~k unconstrained_path) in
            let upper_bound () = ub in
            let baseline_s =
              time_runs (fun () -> Kaware.solve graph ~k ~initial)
            in
            let pruned_s =
              time_runs (fun () ->
                  Kaware.solve ~upper_bound:ub graph ~k ~initial)
            in
            (* Exactness cross-check at bench time: pruning must not move
               the optimum. *)
            (match
               ( Kaware.solve graph ~k ~initial,
                 Kaware.solve ~upper_bound:(upper_bound ()) graph ~k ~initial )
             with
            | Some (c0, p0), Some (c1, p1) ->
                if not (Int64.equal (Int64.bits_of_float c0) (Int64.bits_of_float c1) && p0 = p1)
                then failwith (Printf.sprintf "solvers: pruned result differs at n=%d k=%d" n k)
            | _ -> failwith "solvers: kaware returned no path");
            let delta =
              with_counters (fun () ->
                  Kaware.solve ~upper_bound:(upper_bound ()) graph ~k ~initial)
            in
            let states_pruned = snapshot_counter delta "advisor.kaware.states_pruned" in
            let states_alive = snapshot_counter delta "advisor.kaware.nodes_expanded" in
            let ranking =
              if n > solvers_ranking_max_n then None
              else begin
                let run () =
                  Ranking.solve_constrained graph ~k ~initial
                    ~upper_bound:(upper_bound ())
                    ~max_queue:solvers_ranking_max_queue ()
                in
                let ranking_s = time_runs run in
                (* Even a give-up is a datapoint: the budgets turn the
                   paper's worst case (rank explosion at small k) into a
                   bounded, reported failure instead of an OOM. *)
                let delta = with_counters run in
                let obs_peak =
                  (* The histogram gets exactly one observation per solve,
                     so the delta's sum is this run's peak (percentiles
                     don't diff across snapshots). *)
                  match Obs.Snapshot.find delta "advisor.ranking.queue_peak" with
                  | Some (Obs.Snapshot.Dist d) -> int_of_float d.Obs.Snapshot.sum
                  | Some (Obs.Snapshot.Count _) | None -> 0
                in
                let outcome =
                  match run () with
                  | `Found (_, _, rank) -> Rk_found { rank; queue_peak = obs_peak }
                  | `Gave_up g ->
                      Rk_gave_up
                        {
                          reason = Ranking.reason_to_string g.Ranking.reason;
                          examined = g.Ranking.examined;
                          queue_peak = g.Ranking.queue_peak;
                        }
                in
                Some (ranking_s, outcome)
              end
            in
            let row_opt f o = match o with Some v -> f v | None -> "-" in
            Cddpd_util.Text_table.add_row table
              [
                string_of_int n;
                string_of_int k;
                Printf.sprintf "%.2f" (baseline_s *. 1e3);
                Printf.sprintf "%.2f" (pruned_s *. 1e3);
                Printf.sprintf "%.1fx" (baseline_s /. pruned_s);
                string_of_int states_pruned;
                row_opt (fun (s, _) -> Printf.sprintf "%.2f" (s *. 1e3)) ranking;
                row_opt
                  (fun (_, o) ->
                    match o with
                    | Rk_found { rank; _ } -> string_of_int rank
                    | Rk_gave_up { reason; _ } -> reason)
                  ranking;
                row_opt
                  (fun (_, o) ->
                    match o with
                    | Rk_found { queue_peak; _ } | Rk_gave_up { queue_peak; _ } ->
                        string_of_int queue_peak)
                  ranking;
              ];
            {
              sv_n = n;
              sv_k = k;
              sv_baseline_s = baseline_s;
              sv_pruned_s = pruned_s;
              sv_states_pruned = states_pruned;
              sv_states_alive = states_alive;
              sv_ranking = ranking;
            })
          solvers_ks)
      spaces
  in
  Cddpd_util.Text_table.print table;
  entries

(* Timings in the JSON are medians of [solvers_runs]; speedups are the
   ratio of medians.  The file is tracked in git as the scaling baseline —
   refresh it with `make bench-update` (docs/PERFORMANCE.md). *)
let solvers_json entries =
  let ranking = function
    | None -> Json.Null
    | Some (s, Rk_found { rank; queue_peak }) ->
        Json.Object
          [
            ("outcome", Json.String "found"); ("median_s", Json.fixed 6 s); ("rank", Json.int rank);
            ("queue_peak", Json.int queue_peak);
          ]
    | Some (s, Rk_gave_up { reason; examined; queue_peak }) ->
        Json.Object
          [
            ("outcome", Json.String "gave_up"); ("reason", Json.String reason);
            ("median_s", Json.fixed 6 s); ("examined", Json.int examined);
            ("queue_peak", Json.int queue_peak);
          ]
  in
  let entry e =
    Json.Object
      [
        ("n", Json.int e.sv_n); ("k", Json.int e.sv_k);
        ("kaware_baseline_s", Json.fixed 6 e.sv_baseline_s);
        ("kaware_pruned_s", Json.fixed 6 e.sv_pruned_s);
        ("speedup", Json.fixed 3 (e.sv_baseline_s /. e.sv_pruned_s));
        ("states_pruned", Json.int e.sv_states_pruned);
        ("states_alive", Json.int e.sv_states_alive); ("ranking", ranking e.sv_ranking);
      ]
  in
  Json.Object
    [
      ("schema", Json.String "cddpd-bench-solvers/1"); ("stages", Json.int solvers_stages);
      ("phase_len", Json.int solvers_phase_len); ("runs", Json.int solvers_runs);
      ("cores", Json.int (Cddpd_util.Parallel.ncpu ()));
      ("entries", Json.Array (List.map entry entries));
    ]

(* -- experiments suite: parallel cell runner + scan-optimized storage ----- *)

(* A reduced figure3+figure4 sweep (the two paper artifacts dominated by,
   respectively, engine replay I/O and solver runtime), run through the
   parallel cell runner under every arm of {cell_jobs}.  Figure 4 always
   runs on one domain (its cells are timings), so the arms differ in
   Figure 3's width.  Each arm reports the median of [experiments_runs]
   wall times plus a digest of every deterministic output field; the
   digests must agree across all arms — that is the bit-identity claim
   of the cell runner, checked at bench time on every run. *)

let experiments_runs = 3
let experiments_cell_jobs = [ 1; 2 ]
let experiments_ks = [ 2; 6; 10 ]
let experiments_repeats = 2
let experiments_bulk_rows = 100_000

let experiments_reduced (config : Setup.config) =
  {
    config with
    Setup.rows = min config.Setup.rows 10_000;
    value_range = min config.Setup.value_range 2_000;
    scale = Float.min config.Setup.scale 0.1;
  }

(* %h prints the exact hex representation, so the digest is bit-precise. *)
let figure3_digest (r : Figure3.result) =
  String.concat ";"
    (Printf.sprintf "base=%d" r.Figure3.baseline_io
    :: List.map
         (fun m ->
           Printf.sprintf "%s:%d:%d:%h:%h" m.Figure3.workload
             m.Figure3.unconstrained_io m.Figure3.constrained_io
             m.Figure3.relative_unconstrained m.Figure3.relative_constrained)
         r.Figure3.measurements)

let figure4_cost_digest (r : Figure4.result) =
  String.concat ";"
    (Printf.sprintf "uc=%h" r.Figure4.unconstrained_cost
    :: List.map
         (fun p ->
           Printf.sprintf "k%d:%h:%h" p.Figure4.k p.Figure4.kaware_cost
             p.Figure4.merging_cost)
         r.Figure4.points)

type sweep_arm = {
  ex_cell_jobs : int;
  ex_median_s : float;  (** [nan] when the arm was skipped *)
  ex_digest : string;  (** MD5 over the deterministic output fields *)
  ex_skipped : bool;
      (** true when [ex_cell_jobs] exceeds the machine's cores: a
          multi-domain arm on that box measures scheduler thrash, not
          parallel speedup, so it is recorded as skipped instead of run *)
}

let experiments_sweep (config : Setup.config) =
  let cores = Cddpd_util.Parallel.ncpu () in
  let t0 = Unix.gettimeofday () in
  let session = Session.create config in
  Printf.printf "(session loaded in %.1fs)\n%!" (Unix.gettimeofday () -. t0);
  List.map
    (fun cell_jobs ->
      if cell_jobs > cores then begin
        Printf.printf "(skipping cell_jobs=%d arm: %d core%s available)\n%!" cell_jobs cores
          (if cores = 1 then "" else "s");
        { ex_cell_jobs = cell_jobs; ex_median_s = nan; ex_digest = ""; ex_skipped = true }
      end
      else begin
        let digest = ref "" in
        let times =
          Array.init experiments_runs (fun _ ->
              let t0 = Unix.gettimeofday () in
              let f3 = Figure3.run ~cell_jobs session in
              let f4 = Figure4.run ~ks:experiments_ks ~repeats:experiments_repeats session in
              let elapsed = Unix.gettimeofday () -. t0 in
              digest :=
                Digest.to_hex
                  (Digest.string (figure3_digest f3 ^ "|" ^ figure4_cost_digest f4));
              elapsed)
        in
        {
          ex_cell_jobs = cell_jobs;
          ex_median_s = median_of times;
          ex_digest = !digest;
          ex_skipped = false;
        }
      end)
    experiments_cell_jobs

(* Bulk load vs row-at-a-time load of the same batch into a table with two
   prebuilt indexes; the loaded states must answer queries identically. *)
type bulk_result = {
  bk_bulk_s : float;
  bk_row_s : float;
  bk_output_equal : bool;
}

let experiments_bulk () =
  let rng = Rng.create 42 in
  let data =
    Array.init experiments_bulk_rows (fun _ ->
        Array.init 4 (fun _ -> Cddpd_storage.Tuple.Int (Rng.int rng 5_000)))
  in
  let index columns = Index_def.make ~table:"t" ~columns in
  let load bulk =
    let db = Cddpd_engine.Database.create ~pool_capacity:8192 [ Setup.schema ] in
    Cddpd_engine.Database.build_index db (index [ "a" ]);
    Cddpd_engine.Database.build_index db (index [ "a"; "b" ]);
    let t0 = Unix.gettimeofday () in
    Cddpd_engine.Database.load ~bulk db ~table:"t" data;
    (Unix.gettimeofday () -. t0, db)
  in
  let time_mode bulk =
    let last_db = ref None in
    let times =
      Array.init experiments_runs (fun _ ->
          let s, db = load bulk in
          last_db := Some db;
          s)
    in
    (median_of times, Option.get !last_db)
  in
  let bk_bulk_s, db_bulk = time_mode true in
  let bk_row_s, db_row = time_mode false in
  let probe db sql =
    let r = Cddpd_engine.Database.execute_sql db sql in
    List.sort compare r.Cddpd_engine.Database.rows
  in
  let bk_output_equal =
    List.for_all
      (fun sql -> probe db_bulk sql = probe db_row sql)
      [
        "SELECT a, b FROM t WHERE a = 7";
        "SELECT a FROM t WHERE a BETWEEN 100 AND 120";
        "SELECT a, COUNT(*) FROM t GROUP BY a";
      ]
    && Cddpd_engine.Database.row_count db_bulk "t"
       = Cddpd_engine.Database.row_count db_row "t"
  in
  { bk_bulk_s; bk_row_s; bk_output_equal }

(* The figure digest is recorded once: the suite has already failed
   unless every arm that ran gave the same one, and the baseline gate
   compares it with the committed file's (the paper-fidelity gate). *)
let experiments_json ~(config : Setup.config) arms bulk =
  let ran = List.filter (fun a -> not a.ex_skipped) arms in
  let speedup =
    let find jobs = List.find_opt (fun a -> a.ex_cell_jobs = jobs) ran in
    match (find 1, find (List.fold_left max 1 experiments_cell_jobs)) with
    | Some seq, Some par -> seq.ex_median_s /. par.ex_median_s
    | _ -> nan (* serialised as null: no honest multi-core measurement *)
  in
  let arm a =
    Json.Object
      [
        ("cell_jobs", Json.int a.ex_cell_jobs);
        ("median_s", Json.fixed 6 a.ex_median_s);
        ("status", Json.String (if a.ex_skipped then "skipped_cell_jobs_exceed_cores" else "ok"));
      ]
  in
  Json.Object
    [
      ("schema", Json.String "cddpd-bench-experiments/3"); ("rows", Json.int config.Setup.rows);
      ("value_range", Json.int config.Setup.value_range);
      ("scale", Json.fixed 3 config.Setup.scale); ("seed", Json.int config.Setup.seed);
      ("runs", Json.int experiments_runs);
      ("cores", Json.int (Cddpd_util.Parallel.ncpu ()));
      ("figure4_ks", Json.Array (List.map Json.int experiments_ks));
      ("figure4_repeats", Json.int experiments_repeats);
      ("digest", Json.String (match ran with a :: _ -> a.ex_digest | [] -> ""));
      ("sweep", Json.Array (List.map arm arms)); ("digests_identical", Json.Bool true);
      ("parallel_speedup", Json.fixed 3 speedup);
      ( "bulk_load",
        Json.Object
          [
            ("rows", Json.int experiments_bulk_rows); ("indexes", Json.int 2);
            ("runs", Json.int experiments_runs); ("bulk_median_s", Json.fixed 6 bulk.bk_bulk_s);
            ("row_median_s", Json.fixed 6 bulk.bk_row_s);
            ("speedup", Json.fixed 3 (bulk.bk_row_s /. bulk.bk_bulk_s));
            ("output_equal", Json.Bool bulk.bk_output_equal);
          ] );
    ]

let experiments_suite ~(options : options) () =
  (* Timed arms must not be skewed by main-domain metric recording. *)
  let was_enabled = Obs.Registry.enabled () in
  Obs.Registry.disable ();
  Fun.protect
    ~finally:(fun () -> if was_enabled then Obs.Registry.enable ())
  @@ fun () ->
  let config = experiments_reduced options.config in
  let arms = experiments_sweep config in
  let table =
    Cddpd_util.Text_table.create
      [
        ("cell jobs", Cddpd_util.Text_table.Right);
        ("sweep median s", Cddpd_util.Text_table.Right);
        ("digest", Cddpd_util.Text_table.Left);
      ]
  in
  List.iter
    (fun a ->
      Cddpd_util.Text_table.add_row table
        (if a.ex_skipped then
           [
             string_of_int a.ex_cell_jobs;
             "skipped";
             Printf.sprintf "(more cell jobs than %d cores)" (Cddpd_util.Parallel.ncpu ());
           ]
         else
           [
             string_of_int a.ex_cell_jobs;
             Printf.sprintf "%.2f" a.ex_median_s;
             String.sub a.ex_digest 0 12;
           ]))
    arms;
  Cddpd_util.Text_table.print table;
  (match List.filter (fun a -> not a.ex_skipped) arms with
  | first :: rest as ran ->
      List.iter
        (fun a ->
          if not (String.equal a.ex_digest first.ex_digest) then
            failwith
              (Printf.sprintf "experiments: outputs differ at cell_jobs=%d" a.ex_cell_jobs))
        rest;
      Printf.printf "\nall %d measured arms produced identical outputs\n%!"
        (List.length ran)
  | [] -> ());
  let bulk = experiments_bulk () in
  Printf.printf
    "bulk load %d rows, 2 indexes: bulk %.2fs vs row-at-a-time %.2fs \
     (%.1fx), outputs %s\n%!"
    experiments_bulk_rows bulk.bk_bulk_s bulk.bk_row_s
    (bulk.bk_row_s /. bulk.bk_bulk_s)
    (if bulk.bk_output_equal then "equal" else "DIFFER");
  if not bulk.bk_output_equal then
    failwith "experiments: bulk load state differs from row-at-a-time load";
  experiments_json ~config arms bulk

(* -- configspace suite: the design-space scaling pipeline ------------------ *)

(* End-to-end run of the scaled pipeline (Candidates.generate ->
   Pruner.score / dominance_prune / space -> Problem.build -> solve) off
   the paper's 4-column table: a
   16-column table under a phased, template-based point-query workload,
   swept over candidate budget x sequence length.  Templates repeat, so
   workload compression has real clusters to find (the cost key depends
   on statement shape and selectivity, not literal values), and phases
   shift the hot columns so the solver has transitions worth paying for.

   Every timed run digests both matrices bit-exactly; the digests must
   agree across runs, and — wherever the exact arm stays affordable —
   with a naive per-statement fill over the same space.  The JSON
   records the what-if accounting: measured calls for the
   pruned+compressed arm vs the naive per-statement construction over
   the unpruned space of the same configuration width. *)

module Candidates = Cddpd_core.Candidates
module Pruner = Cddpd_core.Pruner
module Schema = Cddpd_catalog.Schema
module Parser = Cddpd_sql.Parser

let configspace_runs = 3
let configspace_caps = [ 20; 100; 500 ]
let configspace_lengths = [ 64; 1024 ]
let configspace_stmts_per_step = 4
let configspace_rows = 4_000
let configspace_value_range = 800
let configspace_columns = 16
let configspace_phases = 4
let configspace_templates_per_phase = 32
let configspace_max_width = 3
let configspace_max_structures = 2
let configspace_max_configs = 512
let configspace_k = 2

(* The exact arm costs one what-if call per (statement, config):
   cross-check only where that stays affordable. *)
let configspace_exact_budget = 2_500_000

(* The exact reference: EXEC binds each statement once and sums
   Cost_model.bound_cost per (statement, config) cell in statement order —
   the formula path Cost_model.statement_cost takes — and TRANS is
   Cost_model.transition_cost per pair.  No clustering, column sharing or
   memo stands between it and the cost model. *)
let configspace_exact_problem ~params ~stats_of ~steps ~space =
  let designs = Config_space.designs space in
  let bound =
    Array.map
      (Array.map (fun statement ->
           Cddpd_engine.Cost_model.bind (stats_of (Ast.table_of statement)) statement))
      steps
  in
  let exec =
    Array.map
      (fun step ->
        Array.map
          (fun design ->
            Array.fold_left
              (fun acc b -> acc +. Cddpd_engine.Cost_model.bound_cost params b design)
              0.0 step)
          designs)
      bound
  in
  let trans =
    Array.map
      (fun from_design ->
        Array.map
          (fun to_design ->
            Cddpd_engine.Cost_model.transition_cost params ~stats_of ~from_design
              ~to_design)
          designs)
      designs
  in
  Problem.of_matrices ~steps ~space ~initial:(Config_space.id_of_exn space Design.empty)
    ~exec ~trans ()

(* Concrete statement instances per template: the workload draws whole
   statements from a fixed pool, the way prepared statements repeat in a
   real trace.  The cost key hashes the histogram selectivity of each
   literal, so only exact repeats cluster — pool reuse is what gives
   workload compression real clusters to find. *)
let configspace_instances_per_template = 2

let configspace_schema =
  Schema.table "w"
    (List.init configspace_columns (fun i ->
         (Printf.sprintf "c%d" i, Schema.Int_type)))

let configspace_db () =
  let db =
    Cddpd_engine.Database.create ~pool_capacity:4096 [ configspace_schema ]
  in
  Cddpd_engine.Database.load db ~table:"w"
    (Cddpd_workload.Data_gen.uniform_rows ~columns:configspace_columns
       ~rows:configspace_rows ~value_range:configspace_value_range ~seed:7);
  db

(* Per phase, a fixed pool of 2-3-predicate point-query templates over that
   phase's 8 hot columns; phases overlap by 4 columns so candidates and
   clusters are shared across phase boundaries. *)
let configspace_templates =
  let rng = Rng.create 11 in
  let phases =
    Array.make configspace_phases (Array.make 0 ([ 0 ], 0))
  in
  for phase = 0 to configspace_phases - 1 do
    let pool = Array.make configspace_templates_per_phase ([ 0 ], 0) in
    for t = 0 to configspace_templates_per_phase - 1 do
      let col () = ((4 * phase) + Rng.int rng 8) mod configspace_columns in
      let fresh taken =
        let c = ref (col ()) in
        while List.mem !c taken do
          c := col ()
        done;
        !c
      in
      let c1 = fresh [] in
      let c2 = fresh [ c1 ] in
      let preds =
        if Rng.int rng 2 = 0 then [ c1; c2 ] else [ c1; c2; fresh [ c1; c2 ] ]
      in
      pool.(t) <- (preds, col ())
    done;
    phases.(phase) <- pool
  done;
  phases

(* Per phase, the concrete (parsed) statement pools the workload draws
   from: [instances_per_template] point queries per template, plus a
   small pool of updates (DML keeps index-maintenance cost in the
   benefit vectors). *)
let configspace_statement_pool =
  let rng = Rng.create 17 in
  let value () = Rng.int rng configspace_value_range in
  let selects = Array.make configspace_phases [||] in
  let updates = Array.make configspace_phases [||] in
  for phase = 0 to configspace_phases - 1 do
    let templates = configspace_templates.(phase) in
    let pool =
      Array.make (Array.length templates * configspace_instances_per_template)
        (Ast.Select { Ast.projection = Ast.Star; table = "w"; where = [] })
    in
    Array.iteri
      (fun t (preds, proj) ->
        for i = 0 to configspace_instances_per_template - 1 do
          let conj =
            List.map (fun c -> Printf.sprintf "c%d = %d" c (value ())) preds
          in
          pool.((t * configspace_instances_per_template) + i) <-
            Parser.parse_exn
              (Printf.sprintf "SELECT c%d FROM w WHERE %s" proj
                 (String.concat " AND " conj))
        done)
      templates;
    selects.(phase) <- pool;
    updates.(phase) <-
      Array.map
        (fun (preds, set_col) ->
          Parser.parse_exn
            (Printf.sprintf "UPDATE w SET c%d = %d WHERE c%d = %d" set_col
               (value ()) (List.hd preds) (value ())))
        (Array.sub templates 0 8)
  done;
  (selects, updates)

let configspace_workload n_steps =
  let selects, updates = configspace_statement_pool in
  let rng = Rng.create (100 + n_steps) in
  let steps = Array.make n_steps [||] in
  for s = 0 to n_steps - 1 do
    let phase = s * configspace_phases / n_steps in
    let pick pool = pool.(Rng.int rng (Array.length pool)) in
    let stmts =
      Array.init configspace_stmts_per_step (fun q ->
          if q = configspace_stmts_per_step - 1 && s mod 4 = 0 then
            pick updates.(phase)
          else pick selects.(phase))
    in
    steps.(s) <- stmts
  done;
  steps

let configspace_matrix_digest (problem : Problem.t) =
  let buf = Buffer.create (1 lsl 16) in
  let add m =
    Array.iter
      (fun row ->
        Array.iter (fun x -> Buffer.add_int64_ne buf (Int64.bits_of_float x)) row)
      m
  in
  add problem.Problem.exec;
  add problem.Problem.trans;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let configspace_pipeline ~params ~stats_of ~steps ~flat cap =
  let candidates =
    Candidates.generate configspace_schema ~max_width:configspace_max_width
      ~max_candidates:cap flat
  in
  let scored = Pruner.score ~params ~stats_of ~steps candidates in
  let survivors, pruned = Pruner.dominance_prune scored in
  let space =
    Pruner.space ~max_structures:configspace_max_structures
      ~max_configs:configspace_max_configs survivors
  in
  let problem =
    Problem.build ~params ~stats_of ~steps ~space ~initial:Design.empty ()
  in
  (candidates, survivors, pruned, problem)

type configspace_entry = {
  cg_cap : int;
  cg_n : int;
  cg_statements : int;
  cg_generated : int;
  cg_survivors : int;
  cg_pruned : int;
  cg_clusters : int;
  cg_configs : int;
  cg_pipeline_s : float;
  cg_solve_s : float;
  cg_cost : float;
  cg_changes : int;
  cg_measured_whatif : int;
  cg_naive_configs : int;
  cg_naive_whatif : int;
  cg_same_space_whatif : int;
  cg_digest : string;
  cg_exact_checked : bool;
}

let configspace_suite () =
  let was_enabled = Obs.Registry.enabled () in
  Obs.Registry.disable ();
  Fun.protect
    ~finally:(fun () -> if was_enabled then Obs.Registry.enable ())
  @@ fun () ->
  let db = configspace_db () in
  let params = Cddpd_engine.Database.params db in
  let stats_of table = Cddpd_engine.Database.table_stats db table in
  let table =
    Cddpd_util.Text_table.create
      [
        ("cap", Cddpd_util.Text_table.Right);
        ("n", Cddpd_util.Text_table.Right);
        ("stmts", Cddpd_util.Text_table.Right);
        ("cand", Cddpd_util.Text_table.Right);
        ("surv", Cddpd_util.Text_table.Right);
        ("clusters", Cddpd_util.Text_table.Right);
        ("configs", Cddpd_util.Text_table.Right);
        ("pipeline ms", Cddpd_util.Text_table.Right);
        ("solve ms", Cddpd_util.Text_table.Right);
        ("what-if", Cddpd_util.Text_table.Right);
        ("naive", Cddpd_util.Text_table.Right);
        ("ratio", Cddpd_util.Text_table.Right);
        ("exact", Cddpd_util.Text_table.Left);
      ]
  in
  let entries =
    List.concat_map
      (fun n_steps ->
        let steps = configspace_workload n_steps in
        let flat = Array.concat (Array.to_list steps) in
        let total_statements = Array.length flat in
        List.map
          (fun cap ->
            let result = ref None in
            let digests = ref [] in
            let times =
              Array.init configspace_runs (fun _ ->
                  let t0 = Unix.gettimeofday () in
                  let r = configspace_pipeline ~params ~stats_of ~steps ~flat cap in
                  let elapsed = Unix.gettimeofday () -. t0 in
                  let _, _, _, problem = r in
                  digests := configspace_matrix_digest problem :: !digests;
                  result := Some r;
                  elapsed)
            in
            let pipeline_s = median_of times in
            (match !digests with
            | first :: rest ->
                List.iter
                  (fun d ->
                    if not (String.equal d first) then
                      failwith
                        (Printf.sprintf
                           "configspace: matrices differ across runs at cap=%d n=%d"
                           cap n_steps))
                  rest
            | [] -> ());
            let candidates, survivors, pruned, problem = Option.get !result in
            let digest = List.hd !digests in
            let generated = List.length candidates in
            let n_survivors = List.length survivors in
            let clusters =
              match survivors with
              | s :: _ -> Array.length s.Pruner.benefit
              | [] -> 0
            in
            let n_configs = Config_space.size problem.Problem.space in
            (* Counters come from one instrumented (untimed) rerun. *)
            let delta =
              with_counters (fun () ->
                  configspace_pipeline ~params ~stats_of ~steps ~flat cap)
            in
            let measured = snapshot_counter delta "cost_model.calls" in
            let t0 = Unix.gettimeofday () in
            let solution =
              match
                Optimizer.solve problem ~method_name:Solution.Merging
                  ~k:configspace_k ()
              with
              | Ok s -> s
              | Error _ -> failwith "configspace: merging solve failed"
            in
            let solve_s = Unix.gettimeofday () -. t0 in
            let exact_checked =
              total_statements * n_configs <= configspace_exact_budget
              &&
              (let exact =
                 configspace_exact_problem ~params ~stats_of ~steps
                   ~space:problem.Problem.space
               in
               if not (String.equal (configspace_matrix_digest exact) digest)
               then
                 failwith
                   (Printf.sprintf
                      "configspace: compressed matrices differ from exact at \
                       cap=%d n=%d"
                      cap n_steps);
               true)
            in
            (* What-if accounting.  Measured: the [cost_model.calls] the
               instrumented rerun made — one per atom, i.e. per (cluster,
               candidate) while scoring and per (cluster, universe
               structure) while filling EXEC.  Naive: per-statement EXEC
               over the unpruned space of the same width, per-pair TRANS. *)
            let naive_configs = 1 + generated + (generated * (generated - 1) / 2) in
            let naive =
              (total_statements * naive_configs) + (naive_configs * naive_configs)
            in
            let same_space =
              (total_statements * n_configs) + (n_configs * n_configs)
            in
            if cap = 500 && n_steps = 1024 then begin
              if n_configs < 500 then
                failwith
                  (Printf.sprintf "configspace: only %d configs at the headline cell"
                     n_configs);
              if n_survivors < 50 then
                failwith
                  (Printf.sprintf
                     "configspace: only %d surviving candidates at the headline cell"
                     n_survivors);
              if measured * 10 > naive then
                failwith
                  (Printf.sprintf
                     "configspace: measured what-if %d not 10x below naive %d"
                     measured naive)
            end;
            Cddpd_util.Text_table.add_row table
              [
                string_of_int cap;
                string_of_int n_steps;
                string_of_int total_statements;
                string_of_int generated;
                string_of_int n_survivors;
                string_of_int clusters;
                string_of_int n_configs;
                Printf.sprintf "%.1f" (pipeline_s *. 1e3);
                Printf.sprintf "%.1f" (solve_s *. 1e3);
                string_of_int measured;
                string_of_int naive;
                Printf.sprintf "%.0fx" (float_of_int naive /. float_of_int (max 1 measured));
                (if exact_checked then "ok" else "-");
              ];
            {
              cg_cap = cap;
              cg_n = n_steps;
              cg_statements = total_statements;
              cg_generated = generated;
              cg_survivors = n_survivors;
              cg_pruned = pruned;
              cg_clusters = clusters;
              cg_configs = n_configs;
              cg_pipeline_s = pipeline_s;
              cg_solve_s = solve_s;
              cg_cost = solution.Solution.cost;
              cg_changes = solution.Solution.changes;
              cg_measured_whatif = measured;
              cg_naive_configs = naive_configs;
              cg_naive_whatif = naive;
              cg_same_space_whatif = same_space;
              cg_digest = digest;
              cg_exact_checked = exact_checked;
            })
          configspace_caps)
      configspace_lengths
  in
  Cddpd_util.Text_table.print table;
  entries

let configspace_json entries =
  let per a b = Json.fixed 3 (float_of_int a /. float_of_int (max 1 b)) in
  let cell e =
    Json.Object
      [
        ("candidates_cap", Json.int e.cg_cap); ("n_steps", Json.int e.cg_n);
        ("statements", Json.int e.cg_statements); ("generated", Json.int e.cg_generated);
        ("survivors", Json.int e.cg_survivors); ("pruned", Json.int e.cg_pruned);
        ("prune_ratio", per e.cg_pruned e.cg_generated); ("clusters", Json.int e.cg_clusters);
        ("compression_ratio", per e.cg_statements e.cg_clusters);
        ("configs", Json.int e.cg_configs); ("pipeline_median_s", Json.fixed 6 e.cg_pipeline_s);
        ("solve_s", Json.fixed 6 e.cg_solve_s); ("solve_cost", Json.fixed 3 e.cg_cost);
        ("changes", Json.int e.cg_changes);
        ( "whatif",
          Json.Object
            [
              ("measured", Json.int e.cg_measured_whatif);
              ("naive_unpruned_configs", Json.int e.cg_naive_configs);
              ("naive_unpruned", Json.int e.cg_naive_whatif);
              ("ratio_vs_naive", per e.cg_naive_whatif e.cg_measured_whatif);
              ("same_space_per_statement", Json.int e.cg_same_space_whatif);
              ("ratio_vs_same_space", per e.cg_same_space_whatif e.cg_measured_whatif);
            ] );
        ("digest", Json.String e.cg_digest); ("exact_arm_checked", Json.Bool e.cg_exact_checked);
      ]
  in
  Json.Object
    [
      ("schema", Json.String "cddpd-bench-configspace/3"); ("rows", Json.int configspace_rows);
      ("value_range", Json.int configspace_value_range);
      ("columns", Json.int configspace_columns);
      ("statements_per_step", Json.int configspace_stmts_per_step);
      ("runs", Json.int configspace_runs); ("cores", Json.int (Cddpd_util.Parallel.ncpu ()));
      ("max_width", Json.int configspace_max_width);
      ("max_structures", Json.int configspace_max_structures);
      ("max_configs", Json.int configspace_max_configs); ("k", Json.int configspace_k);
      ("cells", Json.Array (List.map cell entries));
    ]

(* -- serve suite: incremental re-optimization across windows --------------- *)

(* Two serve runs over the same phased trace on identically-seeded
   databases — one threading the persistent {!Reopt} session (the
   default), one with [Server.config.reopt_reuse] off, the from-scratch
   reference this suite alone runs — with drift detection forced to
   re-optimize at every window
   close, so the stable-phase windows expose the incremental rebuild.
   Instrumentation stays ENABLED for both arms: the headline is what-if
   call counts, and [cost_model.calls] is silent otherwise.  Wall times
   therefore carry the same small accounting overhead on both sides.

   Checked on every run, not just recorded: each window's control
   decisions must be bit-identical between the arms (per-window digest),
   the stable-phase windows must make >= [serve_min_stable_ratio] fewer
   what-if calls incrementally than from scratch, and no stable-phase
   window may recost its whole cluster table. *)

module Server = Cddpd_serve.Server
module Reopt = Cddpd_core.Reopt
module Compress = Cddpd_workload.Compress
module Cost_key = Cddpd_engine.Cost_key

let serve_rows = 4_000
let serve_value_range = 800
let serve_window = 50
let serve_pool_size = 20
let serve_phases =
  [| "a"; "a"; "a"; "b"; "b"; "b"; "a"; "a"; "c"; "c"; "a"; "a" |]
let serve_min_stable_ratio = 5.0

(* Windows whose phase matches the previous window's: the cells where an
   online advisor should pay only the delta. *)
let serve_stable =
  Array.mapi
    (fun i p -> i > 0 && String.equal p serve_phases.(i - 1))
    serve_phases

let serve_schema =
  Schema.table "t"
    [ ("a", Schema.Int_type); ("b", Schema.Int_type); ("c", Schema.Int_type);
      ("d", Schema.Int_type) ]

let serve_db () =
  let db = Cddpd_engine.Database.create ~pool_capacity:2048 [ serve_schema ] in
  Cddpd_engine.Database.load db ~table:"t"
    (Cddpd_workload.Data_gen.uniform_rows ~columns:4 ~rows:serve_rows
       ~value_range:serve_value_range ~seed:3);
  Cddpd_engine.Database.analyze db;
  db

(* Per phase column, a fixed pool of concrete point queries; windows draw
   from the pool round-robin, the way prepared statements repeat in a
   real trace.  Two windows of the same phase therefore carry the same
   cost-identity key set even though the loop serves every arriving
   statement individually — the stable-workload case the reuse path is
   built for. *)
let serve_statement_pool =
  let pool column =
    Array.init serve_pool_size (fun i ->
        Parser.parse_exn
          (Printf.sprintf "SELECT * FROM t WHERE %s = %d" column
             (1 + ((i * 37) mod serve_value_range))))
  in
  [ ("a", pool "a"); ("b", pool "b"); ("c", pool "c") ]

let serve_phase_window phase =
  let pool = List.assoc phase serve_statement_pool in
  Array.init serve_window (fun i -> pool.(i mod serve_pool_size))

let serve_trace () =
  Array.concat (Array.to_list (Array.map serve_phase_window serve_phases))

let serve_server_config ~reuse =
  {
    (Server.default_config ~table:"t") with
    Server.window = serve_window;
    drift_threshold = -1.0;  (* re-optimize at every window close *)
    reopt_reuse = reuse;
  }

(* What each window's re-optimization actually did, per arm. *)
type serve_cell = {
  se_digest : string;  (** the window's control decisions, bit-precise *)
  se_whatif : int;  (** cost_model.calls made by this re-optimization *)
  se_reopt_s : float;
  se_exec_reused : int;
  se_recosted : int;
}

type serve_arm = {
  se_cells : serve_cell array;
  se_wall_s : float;  (** whole-trace wall time, execution included *)
  se_stats : Reopt.stats;
}

let serve_action_fingerprint = function
  | Server.No_action -> "none"
  | Server.Held _ -> "held"
  | Server.Deployed { design; _ } -> "deploy:" ^ Design.name design
  | Server.Rejected { design; _ } -> "reject:" ^ Design.name design
  | Server.Rolled_back { restored; _ } -> "rollback:" ^ Design.name restored

(* %h keeps the drift distance bit-precise, as in the other suites. *)
let serve_window_digest (w : Server.window_report) =
  Printf.sprintf "%d:%d:%d:%s:%b:%s" w.Server.index w.Server.n_statements
    w.Server.exec_logical_io
    (match w.Server.drift with None -> "-" | Some d -> Printf.sprintf "%h" d)
    w.Server.drifted
    (serve_action_fingerprint w.Server.action)

let serve_run_arm ~reuse trace =
  let db = serve_db () in
  let server = Server.create db (serve_server_config ~reuse) in
  let cells = ref [] in
  let prev = ref (Server.reopt_stats server) in
  let t0 = Unix.gettimeofday () in
  Array.iter
    (fun stmt ->
      match Server.feed server stmt with
      | Error message -> failwith ("serve: statement rejected: " ^ message)
      | Ok None -> ()
      | Ok (Some w) ->
          let now = Server.reopt_stats server in
          let dr f = f now.Reopt.reuse - f !prev.Reopt.reuse in
          cells :=
            {
              se_digest = serve_window_digest w;
              se_whatif = w.Server.reopt_whatif_calls;
              se_reopt_s = w.Server.reopt_s;
              se_exec_reused =
                dr (fun t -> t.Problem.Reuse.exec_columns_reused);
              se_recosted = dr (fun t -> t.Problem.Reuse.clusters_recosted);
            }
            :: !cells;
          prev := now)
    trace;
  let wall = Unix.gettimeofday () -. t0 in
  let report = Server.finish server in
  {
    se_cells = Array.of_list (List.rev !cells);
    se_wall_s = wall;
    se_stats = report.Server.reopt;
  }

(* The cluster-table size of each window's re-optimization problem,
   computed independently of the serve loop (same keys, same clustering,
   over the same [history] windows): the denominator for the "no stable
   window recosts everything" guard.  The trace has no DML, so the
   statistics — and with them the keys — are fixed for the whole run. *)
let serve_cluster_tables () =
  let stats = Cddpd_engine.Database.table_stats (serve_db ()) "t" in
  let history = (serve_server_config ~reuse:true).Server.history in
  Array.mapi
    (fun i _ ->
      let lo = max 0 (i - history + 1) in
      let stmts =
        Array.concat
          (List.init (i - lo + 1) (fun j ->
               serve_phase_window serve_phases.(lo + j)))
      in
      let keys = Array.map (fun s -> Cost_key.statement stats s) stmts in
      Array.length (Compress.cluster_keys keys).Compress.representatives)
    serve_phases

let serve_stable_sum f arm =
  let acc = ref 0 in
  Array.iteri (fun i c -> if serve_stable.(i) then acc := !acc + f c) arm.se_cells;
  !acc

let serve_stable_sum_s f arm =
  let acc = ref 0.0 in
  Array.iteri (fun i c -> if serve_stable.(i) then acc := !acc +. f c) arm.se_cells;
  !acc

let serve_suite () =
  let was_enabled = Obs.Registry.enabled () in
  Obs.Registry.enable ();
  Fun.protect
    ~finally:(fun () -> if not was_enabled then Obs.Registry.disable ())
  @@ fun () ->
  let trace = serve_trace () in
  Printf.printf
    "trace: %d windows x %d statements, phases %s; re-optimizing every window\n%!"
    (Array.length serve_phases) serve_window
    (String.concat "" (Array.to_list serve_phases));
  let scratch = serve_run_arm ~reuse:false trace in
  let incr = serve_run_arm ~reuse:true trace in
  let n = Array.length serve_phases in
  if Array.length scratch.se_cells <> n || Array.length incr.se_cells <> n then
    failwith "serve: expected one closed window per phase entry";
  Array.iteri
    (fun i (s : serve_cell) ->
      if not (String.equal s.se_digest incr.se_cells.(i).se_digest) then
        failwith
          (Printf.sprintf
             "serve: window %d differs between from-scratch and incremental \
              arms:\n  scratch     %s\n  incremental %s"
             i s.se_digest incr.se_cells.(i).se_digest))
    scratch.se_cells;
  let clusters = serve_cluster_tables () in
  let table =
    Cddpd_util.Text_table.create
      [
        ("window", Cddpd_util.Text_table.Right);
        ("phase", Cddpd_util.Text_table.Left);
        ("stable", Cddpd_util.Text_table.Left);
        ("clusters", Cddpd_util.Text_table.Right);
        ("scratch calls", Cddpd_util.Text_table.Right);
        ("incr calls", Cddpd_util.Text_table.Right);
        ("scratch ms", Cddpd_util.Text_table.Right);
        ("incr ms", Cddpd_util.Text_table.Right);
        ("cols reused", Cddpd_util.Text_table.Right);
        ("recosted", Cddpd_util.Text_table.Right);
      ]
  in
  Array.iteri
    (fun i (s : serve_cell) ->
      let c = incr.se_cells.(i) in
      Cddpd_util.Text_table.add_row table
        [
          string_of_int i;
          serve_phases.(i);
          (if serve_stable.(i) then "yes" else "-");
          string_of_int clusters.(i);
          string_of_int s.se_whatif;
          string_of_int c.se_whatif;
          Printf.sprintf "%.1f" (s.se_reopt_s *. 1e3);
          Printf.sprintf "%.1f" (c.se_reopt_s *. 1e3);
          string_of_int c.se_exec_reused;
          string_of_int c.se_recosted;
        ])
    scratch.se_cells;
  Cddpd_util.Text_table.print table;
  Array.iteri
    (fun i stable ->
      if stable then begin
        let c = incr.se_cells.(i) in
        if clusters.(i) <= 0 then
          failwith (Printf.sprintf "serve: window %d has no clusters" i);
        if c.se_recosted >= clusters.(i) then
          failwith
            (Printf.sprintf
               "serve: stable window %d recosted all %d clusters — the reuse \
                path found nothing to copy"
               i clusters.(i))
      end)
    serve_stable;
  let calls_scratch = serve_stable_sum (fun c -> c.se_whatif) scratch in
  let calls_incr = serve_stable_sum (fun c -> c.se_whatif) incr in
  let ratio = float_of_int calls_scratch /. float_of_int (max 1 calls_incr) in
  if ratio < serve_min_stable_ratio then
    failwith
      (Printf.sprintf
         "serve: stable-window what-if ratio %.1fx below the %.0fx floor \
          (%d from-scratch vs %d incremental)"
         ratio serve_min_stable_ratio calls_scratch calls_incr);
  let reopt_s_scratch = serve_stable_sum_s (fun c -> c.se_reopt_s) scratch in
  let reopt_s_incr = serve_stable_sum_s (fun c -> c.se_reopt_s) incr in
  Printf.printf
    "\nstable windows: %d what-if calls from scratch vs %d incremental \
     (%.1fx), %.1fms vs %.1fms re-optimizing\n%!"
    calls_scratch calls_incr ratio (reopt_s_scratch *. 1e3)
    (reopt_s_incr *. 1e3);
  Printf.printf
    "incremental session: %d builds, %d exec columns reused, %d clusters \
     recosted, atom memo %d/%d hit/miss\n%!"
    incr.se_stats.Reopt.reuse.Problem.Reuse.builds
    incr.se_stats.Reopt.reuse.Problem.Reuse.exec_columns_reused
    incr.se_stats.Reopt.reuse.Problem.Reuse.clusters_recosted
    incr.se_stats.Reopt.cache.Cddpd_engine.Cost_cache.hits
    incr.se_stats.Reopt.cache.Cddpd_engine.Cost_cache.misses;
  (scratch, incr, clusters)

let serve_json (scratch, incr, clusters) =
  let cfg = serve_server_config ~reuse:true in
  let calls_scratch = serve_stable_sum (fun c -> c.se_whatif) scratch in
  let calls_incr = serve_stable_sum (fun c -> c.se_whatif) incr in
  let reopt_s_scratch = serve_stable_sum_s (fun c -> c.se_reopt_s) scratch in
  let reopt_s_incr = serve_stable_sum_s (fun c -> c.se_reopt_s) incr in
  let stable_windows =
    Array.fold_left (fun acc s -> if s then acc + 1 else acc) 0 serve_stable
  in
  let cell i (s : serve_cell) =
    let c = incr.se_cells.(i) in
    Json.Object
      [
        ("index", Json.int i); ("phase", Json.String serve_phases.(i));
        ("stable", Json.Bool serve_stable.(i)); ("clusters", Json.int clusters.(i));
        ("digest_equal", Json.Bool (String.equal s.se_digest c.se_digest));
        ( "from_scratch",
          Json.Object
            [ ("whatif_calls", Json.int s.se_whatif); ("reopt_s", Json.fixed 6 s.se_reopt_s) ] );
        ( "incremental",
          Json.Object
            [
              ("whatif_calls", Json.int c.se_whatif); ("reopt_s", Json.fixed 6 c.se_reopt_s);
              ("exec_columns_reused", Json.int c.se_exec_reused);
              ("clusters_recosted", Json.int c.se_recosted);
            ] );
      ]
  in
  let session (s : Reopt.stats) rest =
    ("reoptimizations", Json.int s.Reopt.reoptimizations)
    :: ("warm_start_bounds", Json.int s.Reopt.warm_start_bounds)
    :: rest
  in
  let tallies = incr.se_stats.Reopt.reuse and cache = incr.se_stats.Reopt.cache in
  Json.Object
    [
      ("schema", Json.String "cddpd-bench-serve/3"); ("rows", Json.int serve_rows);
      ("value_range", Json.int serve_value_range); ("window", Json.int serve_window);
      ("pool", Json.int serve_pool_size); ("history", Json.int cfg.Server.history);
      ("k", Json.int cfg.Server.k);
      ("method", Json.String (Solution.method_to_string cfg.Server.method_name));
      ("cores", Json.int (Cddpd_util.Parallel.ncpu ()));
      ("phases", Json.String (String.concat "" (Array.to_list serve_phases)));
      ("cells", Json.Array (List.mapi cell (Array.to_list scratch.se_cells)));
      ( "stable",
        Json.Object
          [
            ("windows", Json.int stable_windows);
            ("whatif_calls_from_scratch", Json.int calls_scratch);
            ("whatif_calls_incremental", Json.int calls_incr);
            ( "whatif_ratio",
              Json.fixed 3 (float_of_int calls_scratch /. float_of_int (max 1 calls_incr)) );
            ("reopt_s_from_scratch", Json.fixed 6 reopt_s_scratch);
            ("reopt_s_incremental", Json.fixed 6 reopt_s_incr);
            ("speedup", Json.fixed 3 (reopt_s_scratch /. reopt_s_incr));
          ] );
      ( "totals",
        Json.Object
          [
            ("wall_from_scratch_s", Json.fixed 6 scratch.se_wall_s);
            ("wall_incremental_s", Json.fixed 6 incr.se_wall_s);
            ( "incremental",
              Json.Object
                (session incr.se_stats
                   [
                     ("builds", Json.int tallies.Problem.Reuse.builds);
                     ("exec_columns_reused", Json.int tallies.Problem.Reuse.exec_columns_reused);
                     ("clusters_recosted", Json.int tallies.Problem.Reuse.clusters_recosted);
                     ( "cache",
                       Json.Object
                         [
                           ("hits", Json.int cache.Cddpd_engine.Cost_cache.hits);
                           ("misses", Json.int cache.Cddpd_engine.Cost_cache.misses);
                           ("evictions", Json.int cache.Cddpd_engine.Cost_cache.evictions);
                         ] );
                   ]) );
            ("from_scratch", Json.Object (session scratch.se_stats []));
          ] );
      ("digests_identical", Json.Bool true);
    ]

(* -- ingest suite: serve statement fast path -------------------------------- *)

(* The same phased raw-SQL trace replayed through two serve loops on
   identically-seeded databases: the fast path ([Server.feed_sql]:
   statement-template cache, one-pass cost keys, plan-choice memo) against
   the memo-free reference ([Parser.parse] + [Server.feed]).  The caches
   claim bit-identity, so every window's control decisions, drift
   distances, what-if call counts and measured I/O must agree between the
   arms — checked with failwith on every run, not just recorded.  The headline is ingest
   statement throughput: per-feed wall time is split into an ingest
   bucket (feeds that only execute and buffer) and a close bucket (the
   one feed per window that also runs drift detection, re-optimization
   and deployment — control work the caches do not claim to speed up and
   both arms pay identically), and the gate is the ratio of ingest
   statements/s, floor [ingest_min_ratio]. *)

module Template = Cddpd_sql.Template

let ingest_rows = 3_000
let ingest_value_range = 50_000
let ingest_window = 1_000
let ingest_pool_size = 48
let ingest_churn_every = 20  (* every 20th statement carries fresh literals *)
let ingest_min_ratio = 5.0

let ingest_phases =
  [| "a"; "a"; "a"; "a"; "a"; "b"; "b"; "b"; "b"; "b"; "a"; "a"; "a"; "a";
     "a"; "a" |]

(* A wide table and wide statements: seven predicates each, so the
   per-statement front-end work (lex, parse, validate, cost-key every
   predicate, plan choice) — the work the fast path caches — dominates
   execution.  Both queried columns are indexed up front, so execution is
   a cheap point seek (almost always empty at this value range) in every
   window of both arms. *)
let ingest_schema =
  Schema.table "t"
    [ ("a", Schema.Int_type); ("b", Schema.Int_type); ("c", Schema.Int_type);
      ("d", Schema.Int_type); ("e", Schema.Int_type); ("f", Schema.Int_type);
      ("g", Schema.Int_type); ("h", Schema.Int_type) ]

let ingest_db () =
  let db = Cddpd_engine.Database.create ~pool_capacity:2048 [ ingest_schema ] in
  Cddpd_engine.Database.build_index db (Index_def.make ~table:"t" ~columns:[ "a" ]);
  Cddpd_engine.Database.build_index db (Index_def.make ~table:"t" ~columns:[ "b" ]);
  Cddpd_engine.Database.load db ~table:"t"
    (Cddpd_workload.Data_gen.uniform_rows ~columns:8 ~rows:ingest_rows
       ~value_range:ingest_value_range ~seed:11);
  Cddpd_engine.Database.analyze db;
  db

let ingest_text column value lo =
  Printf.sprintf
    "SELECT a, b FROM t WHERE %s = %d AND c BETWEEN %d AND %d AND d = %d \
     AND e = %d AND f = %d AND g = %d AND h = %d"
    column value lo (lo + 40)
    (1 + (value mod 97))
    (1 + (lo mod 89))
    (1 + (value mod 83))
    (1 + (lo mod 79))
    (1 + (value mod 73))

(* Per phase column, a fixed pool of prepared-statement-like texts; the
   churn statements between them never repeat a literal, so the template
   layer must rebind, not just replay. *)
let ingest_pool column =
  Array.init ingest_pool_size (fun i ->
      ingest_text column
        (1 + (i * 1_031 mod ingest_value_range))
        (1 + (i * 157 mod ingest_value_range)))

let ingest_churn_text column j =
  ingest_text column
    (1 + (j * 7_919 mod ingest_value_range))
    (1 + (j * 3_571 mod ingest_value_range))

let ingest_trace () =
  let texts = ref [] in
  let j = ref 0 in
  Array.iter
    (fun phase ->
      let pool = ingest_pool phase in
      for i = 0 to ingest_window - 1 do
        incr j;
        texts :=
          (if i mod ingest_churn_every = 0 then ingest_churn_text phase !j
           else pool.(i mod ingest_pool_size))
          :: !texts
      done)
    ingest_phases;
  Array.of_list (List.rev !texts)

let ingest_config =
  { (Server.default_config ~table:"t") with Server.window = ingest_window }

(* The serve digest plus the window's what-if call count: the caches must
   not change how much cost-model work re-optimization does either. *)
let ingest_window_digest (w : Server.window_report) =
  Printf.sprintf "%s:%d" (serve_window_digest w) w.Server.reopt_whatif_calls

type ingest_arm = {
  in_digests : string array;
  in_ingest_s : float;  (** wall seconds in plain (non-closing) feeds *)
  in_close_s : float;  (** wall seconds in window-closing feeds *)
  in_ingest_statements : int;
  in_statements : int;
  in_exec_io : int;
  in_trans_io : int;
  in_report_digest : string;  (** the final report's counters, bit-precise *)
  in_template : Template.stats option;  (** [None] on the reference arm *)
  in_plan : Cddpd_engine.Database.plan_memo_stats;
}

(* The fast arm feeds raw text; the reference arm parses each text from
   scratch inside the timed feed, so both arms pay for parsing. *)
let ingest_run_arm ~fast trace =
  let db = ingest_db () in
  let server = Server.create db ingest_config in
  let feed text =
    if fast then Server.feed_sql server text
    else Result.bind (Parser.parse text) (Server.feed server)
  in
  let digests = ref [] in
  let ingest_s = ref 0.0 in
  let close_s = ref 0.0 in
  let ingest_n = ref 0 in
  Array.iter
    (fun text ->
      let t0 = Unix.gettimeofday () in
      match feed text with
      | Ok None ->
          ingest_s := !ingest_s +. (Unix.gettimeofday () -. t0);
          incr ingest_n
      | Ok (Some w) ->
          close_s := !close_s +. (Unix.gettimeofday () -. t0);
          digests := ingest_window_digest w :: !digests
      | Error message -> failwith ("ingest: statement rejected: " ^ message))
    trace;
  let report = Server.finish server in
  let report_digest =
    Printf.sprintf "%d:%d:%d:%d:%d:%d:%d:%d:%d:%s" report.Server.statements
      report.Server.residual_statements report.Server.drift_events
      report.Server.reoptimizations report.Server.deployments
      report.Server.rejections report.Server.rollbacks
      report.Server.exec_logical_io report.Server.trans_logical_io
      (Design.name report.Server.final_design)
  in
  {
    in_digests = Array.of_list (List.rev !digests);
    in_ingest_s = !ingest_s;
    in_close_s = !close_s;
    in_ingest_statements = !ingest_n;
    in_statements = report.Server.statements;
    in_exec_io = report.Server.exec_logical_io;
    in_trans_io = report.Server.trans_logical_io;
    in_report_digest = report_digest;
    in_template = (if fast then Some (Server.template_stats server) else None);
    in_plan = Cddpd_engine.Database.plan_memo_stats db;
  }

let ingest_rate arm =
  float_of_int arm.in_ingest_statements /. arm.in_ingest_s

let ingest_suite () =
  (* Instrumentation stays ENABLED for both arms: the digests include
     what-if call counts, which are silent otherwise.  Both arms carry
     the same small accounting overhead. *)
  let was_enabled = Obs.Registry.enabled () in
  Obs.Registry.enable ();
  Fun.protect
    ~finally:(fun () -> if not was_enabled then Obs.Registry.disable ())
  @@ fun () ->
  let trace = ingest_trace () in
  Printf.printf
    "trace: %d windows x %d raw-SQL statements, %d pooled texts per phase, \
     1-in-%d literal churn, phases %s\n%!"
    (Array.length ingest_phases) ingest_window ingest_pool_size
    ingest_churn_every
    (String.concat "" (Array.to_list ingest_phases));
  let reference = ingest_run_arm ~fast:false trace in
  let fast = ingest_run_arm ~fast:true trace in
  let n = Array.length ingest_phases in
  if
    Array.length reference.in_digests <> n || Array.length fast.in_digests <> n
  then failwith "ingest: expected one closed window per phase entry";
  Array.iteri
    (fun i d ->
      if not (String.equal d fast.in_digests.(i)) then
        failwith
          (Printf.sprintf
             "ingest: window %d differs between reference and fast arms:\n\
             \  reference %s\n  fast      %s"
             i d fast.in_digests.(i)))
    reference.in_digests;
  if not (String.equal reference.in_report_digest fast.in_report_digest) then
    failwith
      (Printf.sprintf
         "ingest: final reports differ:\n  reference %s\n  fast      %s"
         reference.in_report_digest fast.in_report_digest);
  let ratio = ingest_rate fast /. ingest_rate reference in
  Printf.printf
    "reference arm (Parser.parse + Server.feed): %d ingest statements \
     in %.3fs (%.0f/s), window closes %.3fs\n%!"
    reference.in_ingest_statements reference.in_ingest_s (ingest_rate reference)
    reference.in_close_s;
  Printf.printf
    "fast arm (Server.feed_sql):                 %d ingest statements \
     in %.3fs (%.0f/s), window closes %.3fs\n%!"
    fast.in_ingest_statements fast.in_ingest_s (ingest_rate fast)
    fast.in_close_s;
  (match fast.in_template with
  | Some t ->
      Printf.printf
        "template cache: %d exact hits, %d misses\n%!"
        t.Template.exact_hits t.Template.misses
  | None -> ());
  Printf.printf
    "plan memo: %d hits, %d misses, %d invalidations\n%!"
    fast.in_plan.Cddpd_engine.Database.hits fast.in_plan.Cddpd_engine.Database.misses
    fast.in_plan.Cddpd_engine.Database.invalidations;
  Printf.printf
    "\ningest throughput ratio: %.1fx (floor %.0fx), windows and report \
     bit-identical\n%!"
    ratio ingest_min_ratio;
  if ratio < ingest_min_ratio then
    failwith
      (Printf.sprintf
         "ingest: fast/reference throughput ratio %.2fx below the %.0fx floor \
          (%.0f/s vs %.0f/s)"
         ratio ingest_min_ratio (ingest_rate fast) (ingest_rate reference));
  (reference, fast, ratio)

(* The reference arm is recorded under the key "slow": the committed
   baseline's schema fixes it. *)
let ingest_json (reference, fast, ratio) =
  let arm_json a =
    Json.Object
      [
        ("statements", Json.int a.in_statements);
        ("ingest_statements", Json.int a.in_ingest_statements);
        ("ingest_wall_s", Json.fixed 6 a.in_ingest_s);
        ("ingest_statements_per_s", Json.fixed 3 (ingest_rate a));
        ("close_wall_s", Json.fixed 6 a.in_close_s);
        ("exec_logical_io", Json.int a.in_exec_io); ("trans_logical_io", Json.int a.in_trans_io);
        ( "template_cache",
          match a.in_template with
          | None -> Json.Null
          | Some t ->
              Json.Object
                [
                  ("exact_hits", Json.int t.Template.exact_hits);
                  ("misses", Json.int t.Template.misses); ("entries", Json.int t.Template.entries);
                ] );
        ( "plan_cache",
          Json.Object
            [
              ("hits", Json.int a.in_plan.Cddpd_engine.Database.hits);
              ("misses", Json.int a.in_plan.Cddpd_engine.Database.misses);
              ("invalidations", Json.int a.in_plan.Cddpd_engine.Database.invalidations);
              ("entries", Json.int a.in_plan.Cddpd_engine.Database.entries);
            ] );
      ]
  in
  Json.Object
    [
      ("schema", Json.String "cddpd-bench-ingest/2"); ("rows", Json.int ingest_rows);
      ("value_range", Json.int ingest_value_range); ("window", Json.int ingest_window);
      ("pool", Json.int ingest_pool_size); ("churn_every", Json.int ingest_churn_every);
      ("phases", Json.String (String.concat "" (Array.to_list ingest_phases)));
      ("cores", Json.int (Cddpd_util.Parallel.ncpu ()));
      ("fast", arm_json fast); ("slow", arm_json reference);
      ("throughput_ratio", Json.fixed 3 ratio); ("min_ratio", Json.fixed 3 ingest_min_ratio);
      ("digests_identical", Json.Bool true);
    ]

let () =
  let ({ experiments; config; metrics } as options) = parse_args () in
  if metrics then Obs.Registry.enable ();
  List.iter
    (fun dir -> if not (Sys.file_exists dir) then Sys.mkdir dir 0o755)
    [ Filename.dirname bench_out; bench_out ];
  Printf.printf "cddpd benchmark harness — rows=%d value_range=%d scale=%.2f seed=%d\n%!"
    config.Setup.rows config.Setup.value_range config.Setup.scale config.Setup.seed;
  let needs_session =
    List.exists
      (fun e ->
        List.mem e [ "table2"; "figure3"; "figure4"; "ablation"; "updates"; "views"; "space"; "micro" ])
      experiments
  in
  let session =
    if needs_session then begin
      let t0 = Unix.gettimeofday () in
      let s = Session.create config in
      Printf.printf "(session loaded in %.1fs)\n%!" (Unix.gettimeofday () -. t0);
      Some s
    end
    else None
  in
  let get_session () =
    match session with Some s -> s | None -> failwith "session required"
  in
  List.iter
    (fun experiment ->
      match experiment with
      | "table1" ->
          banner "Table 1: Workload Query Mixes";
          Table1.print (Table1.run ())
      | "table2" ->
          banner "Table 2: Dynamic Workloads and Physical Designs";
          Table2.print (Table2.run (get_session ()))
      | "figure3" ->
          banner "Figure 3: Relative Execution Times";
          Figure3.print (Figure3.run (get_session ()))
      | "figure4" ->
          banner "Figure 4: Optimizer Runtimes";
          Figure4.print (Figure4.run (get_session ()))
      | "ablation" ->
          banner "Ablation: solver comparison";
          Ablation.print (Ablation.run (get_session ()))
      | "updates" ->
          banner "Updates ablation: queries and updates";
          Updates.print (Updates.run (get_session ()))
      | "views" ->
          banner "Views: scheduling materialized views";
          Views.print (Views.run (get_session ()))
      | "space" ->
          banner "Space bound: SIZE(C) <= b sweep";
          Space_bound.print (Space_bound.run (get_session ()))
      | "micro" ->
          banner "Bechamel micro-benchmarks";
          let rows = micro (get_session ()) in
          let build_s = time_problem_build (get_session ()) in
          Printf.printf "\nProblem.build median wall time: %.3fs (%d runs)\n%!"
            build_s problem_build_runs;
          let stats_refresh = uninstrumented time_stats_refresh in
          Printf.printf
            "statistics refresh after one UPDATE (5,000 x 4): median %.1fus; full rescan \
             %.1fus (%d runs, fingerprints equal)\n%!"
            (stats_refresh.refresh_s *. 1e6) (stats_refresh.rescan_s *. 1e6) stats_refresh_runs;
          emit "micro" (micro_json ~options ~build_s ~stats_refresh rows)
      | "solvers" ->
          banner "Solvers: constrained-solver scaling over large design spaces";
          emit "solvers" (solvers_json (solvers_suite ()))
      | "experiments" ->
          banner "Experiments: parallel cell runner + bulk load";
          emit "experiments" (experiments_suite ~options ())
      | "configspace" ->
          banner "Configspace: design-space scaling pipeline";
          emit "configspace" (configspace_json (configspace_suite ()))
      | "serve" ->
          banner "Serve: incremental re-optimization across windows";
          emit "serve" (serve_json (serve_suite ()))
      | "ingest" ->
          banner "Ingest: serve statement fast path";
          emit "ingest" (ingest_json (ingest_suite ()))
      | _ -> usage ())
    experiments;
  if metrics then begin
    let path = Filename.concat bench_out "BENCH_obs.json" in
    Obs.Sink.write_file path Obs.Sink.Json_lines (Obs.Snapshot.capture ());
    Printf.printf "\n(wrote metrics snapshot + span tree to %s)\n%!" path
  end
