(* cddpd — constrained dynamic physical database design, command line tool.

   Subcommands:
     generate    write a workload trace (one SQL statement per line)
     recommend   recommend a (constrained) dynamic physical design for a trace
     simulate    replay a trace under the recommended design and report I/O
     experiment  reproduce a table/figure of the paper
     serve       online continuous advisor over a statement stream (docs/SERVE.md)

   Every subcommand also accepts --metrics (print a snapshot of all
   observability counters/histograms after the run) and --trace (print the
   hierarchical trace-span tree); see docs/OBSERVABILITY.md.  Counts and
   sizes are checked
   by their converters, so an out-of-range argument is a usage error, not
   an exception. *)

module Setup = Cddpd_experiments.Setup
module Session = Cddpd_experiments.Session
module Design = Cddpd_catalog.Design
module Database = Cddpd_engine.Database
module Trace = Cddpd_workload.Trace
module Spec = Cddpd_workload.Spec
module Workloads = Cddpd_workload.Workloads
module Advisor = Cddpd_core.Advisor
module Server = Cddpd_serve.Server
module Guard = Cddpd_serve.Guard
module Solution = Cddpd_core.Solution
module Problem = Cddpd_core.Problem
module Simulator = Cddpd_core.Simulator
module Text_table = Cddpd_util.Text_table
module Json = Cddpd_util.Json
module Obs = Cddpd_obs

open Cmdliner

(* -- observability --------------------------------------------------------- *)

let metrics_arg =
  Arg.(value & flag
       & info [ "metrics" ]
           ~doc:"Enable instrumentation and print a metrics snapshot (counter \
                 and histogram table) after the run.")

let trace_spans_arg =
  Arg.(value & flag
       & info [ "trace" ]
           ~doc:"Enable instrumentation and print the hierarchical trace-span \
                 tree (wall-time per phase) after the run.")

(* Run [f] with instrumentation on when requested, then print the selected
   reports.  Reports go to stdout after the command's own output. *)
let with_obs ~metrics ~trace f =
  if metrics || trace then Obs.Registry.enable ();
  let code = f () in
  if metrics then begin
    print_newline ();
    print_string (Obs.Sink.render Obs.Sink.Table (Obs.Snapshot.capture ()))
  end;
  if trace then begin
    print_newline ();
    print_string (Obs.Span.render ())
  end;
  code

(* -- argument converters ----------------------------------------------------- *)

(* An integer of at least [lo]; cmdliner reports anything else as a usage
   error naming the option. *)
let int_at_least lo =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo -> Ok n
    | Some _ | None -> Error (`Msg (Printf.sprintf "expected an integer >= %d, got %s" lo s))
  in
  Arg.conv (parse, Format.pp_print_int)

let positive_int = int_at_least 1

(* -- shared arguments ---------------------------------------------------- *)

let rows_arg =
  Arg.(value & opt int Setup.default_config.Setup.rows
       & info [ "rows" ] ~docv:"N" ~doc:"Synthetic table cardinality.")

let value_range_arg =
  Arg.(value & opt int Setup.default_config.Setup.value_range
       & info [ "value-range" ] ~docv:"N" ~doc:"Column value domain $(docv).")

let seed_arg =
  Arg.(value & opt int Setup.default_config.Setup.seed
       & info [ "seed" ] ~docv:"N" ~doc:"Master random seed.")

let scale_arg =
  Arg.(value & opt float 1.0
       & info [ "scale" ] ~docv:"F" ~doc:"Workload segment-length multiplier.")

let readahead_arg =
  Arg.(value & opt int Setup.default_config.Setup.readahead
       & info [ "readahead" ] ~docv:"N"
           ~doc:"Buffer-pool sequential prefetch budget in pages (0 disables \
                 readahead; logical I/O is unaffected either way, see \
                 docs/PERFORMANCE.md).")

let config_of ?readahead rows value_range seed scale =
  let readahead =
    match readahead with
    | Some r -> r
    | None -> Setup.default_config.Setup.readahead
  in
  { Setup.default_config with Setup.rows; value_range; seed; scale; readahead }

let method_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "unconstrained" -> Ok Solution.Unconstrained
    | "kaware" | "k-aware" | "optimal" -> Ok Solution.Kaware
    | "greedy" | "greedy-seq" -> Ok Solution.Greedy_seq
    | "merging" -> Ok Solution.Merging
    | "ranking" -> Ok Solution.Ranking
    | "hybrid" -> Ok Solution.Hybrid
    | s -> Error (`Msg (Printf.sprintf "unknown method %s" s))
  in
  Arg.conv (parse, fun ppf m -> Format.pp_print_string ppf (Solution.method_to_string m))

let method_arg =
  Arg.(value & opt method_conv Solution.Kaware
       & info [ "method" ] ~docv:"METHOD"
           ~doc:"Solver: unconstrained, kaware, greedy-seq, merging, ranking, hybrid.")

let k_arg =
  Arg.(value & opt (some (int_at_least 0)) None
       & info [ "k" ] ~docv:"K" ~doc:"Change budget (omit for unconstrained).")

let max_paths_arg =
  Arg.(value & opt (some int) None
       & info [ "max-paths" ] ~docv:"N"
           ~doc:"Ranking method: give up after examining $(docv) complete \
                 paths (default 1000000).")

let max_queue_arg =
  Arg.(value & opt (some int) None
       & info [ "max-queue" ] ~docv:"N"
           ~doc:"Ranking method: give up when the search frontier exceeds \
                 $(docv) partial paths (default unbounded).")

let segment_arg =
  Arg.(value & opt positive_int 500
       & info [ "segment" ] ~docv:"N" ~doc:"Statements per optimizer step.")

let candidates_arg =
  Arg.(value & opt (some int) None
       & info [ "candidates" ] ~docv:"N"
           ~doc:"Cap auto-derived candidate structures at $(docv) and use \
                 the multi-column generator instead of the paper's pairs \
                 heuristic.")

let composite_width_arg =
  Arg.(value & opt (some int) None
       & info [ "composite-width" ] ~docv:"W"
           ~doc:"Widest composite index the multi-column candidate \
                 generator derives (implies the generator; its default \
                 width is 3).")

let prune_arg =
  Arg.(value & opt (some int) None
       & info [ "prune" ] ~docv:"N"
           ~doc:"What-if-score candidates against the compressed workload, \
                 drop benefit-dominated ones, keep at most $(docv), and \
                 build a pruned configuration space (default 512 configs; \
                 see docs/PERFORMANCE.md).")

(* -- generate -------------------------------------------------------------- *)

let generate workload scale seed value_range output metrics trace =
  with_obs ~metrics ~trace @@ fun () ->
  let spec = Workloads.by_name workload ~scale () in
  let statements =
    Spec.generate_flat spec ~table:Setup.table_name ~value_range ~seed:(seed + 1)
  in
  Trace.save output statements;
  Printf.printf "wrote %d statements (%s, %d segments) to %s\n"
    (Array.length statements) workload (Spec.n_segments spec) output;
  0

let generate_cmd =
  let workload =
    Arg.(value & opt string "W1"
         & info [ "workload" ] ~docv:"NAME" ~doc:"W1, W2 or W3 (Table 2).")
  in
  let output =
    Arg.(value & opt string "trace.sql"
         & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output trace file.")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a workload trace from the paper's specifications.")
    Term.(const generate $ workload $ scale_arg $ seed_arg $ value_range_arg $ output
          $ metrics_arg $ trace_spans_arg)

(* -- recommend / simulate --------------------------------------------------- *)

let load_trace path =
  match Trace.load path with
  | Ok [||] ->
      prerr_endline "cddpd: cannot load trace: no statements";
      exit 1
  | Ok statements -> statements
  | Error message ->
      prerr_endline ("cddpd: cannot load trace: " ^ message);
      exit 1

let with_recommendation trace_path segment k method_name rows value_range seed
    readahead ~max_paths ~max_queue ~max_candidates ~composite_width ~prune f =
  let statements = load_trace trace_path in
  let steps = Trace.segment statements ~size:segment in
  let config = config_of ~readahead rows value_range seed 1.0 in
  let db = Setup.make_database config in
  let request =
    { (Advisor.default_request ~steps ~table:Setup.table_name) with
      Advisor.k; method_name; max_paths; max_queue; max_candidates;
      composite_width; prune }
  in
  match Advisor.recommend db request with
  | Ok recommendation -> f db steps recommendation
  | Error Cddpd_core.Optimizer.Infeasible ->
      prerr_endline "cddpd: infeasible change budget";
      1
  | Error (Cddpd_core.Optimizer.Ranking_gave_up g) ->
      Printf.eprintf "cddpd: ranking gave up after %d paths (%s; frontier peak %d)\n"
        g.Cddpd_graph.Ranking.examined
        (Cddpd_graph.Ranking.reason_to_string g.Cddpd_graph.Ranking.reason)
        g.Cddpd_graph.Ranking.queue_peak;
      1

let print_schedule steps recommendation segment =
  let table =
    Text_table.create
      [
        ("statements", Text_table.Left);
        ("design", Text_table.Left);
      ]
  in
  let runs = Solution.runs recommendation.Advisor.problem recommendation.Advisor.solution in
  List.iter
    (fun (start, len, design) ->
      let first = (start * segment) + 1 in
      let last = min (Array.length steps * segment) ((start + len) * segment) in
      Text_table.add_row table [ Printf.sprintf "%d-%d" first last; Design.name design ])
    runs;
  Text_table.print table;
  Format.printf "%a@." Solution.pp recommendation.Advisor.solution

(* Every method but unconstrained needs a change budget: refuse before
   any work instead of failing inside the optimizer. *)
let require_budget method_name k =
  match (method_name, k) with
  | Solution.Unconstrained, _ | _, Some _ -> ()
  | _, None ->
      Printf.eprintf "cddpd: method %s requires -k\n"
        (Solution.method_to_string method_name);
      exit 2

let recommend input segment k method_name rows value_range seed readahead max_paths
    max_queue max_candidates composite_width prune metrics trace =
  require_budget method_name k;
  with_obs ~metrics ~trace @@ fun () ->
  with_recommendation input segment k method_name rows value_range seed readahead
    ~max_paths ~max_queue ~max_candidates ~composite_width ~prune
    (fun _db steps recommendation ->
      print_schedule steps recommendation segment;
      0)

(* Named --input (not --trace, which enables trace spans). *)
let input_arg =
  Arg.(required & opt (some file) None
       & info [ "i"; "input" ] ~docv:"FILE"
           ~doc:"Workload trace file (one SQL statement per line).")

let recommend_cmd =
  Cmd.v
    (Cmd.info "recommend"
       ~doc:"Recommend a change-constrained dynamic physical design for a trace.")
    Term.(const recommend $ input_arg $ segment_arg $ k_arg $ method_arg $ rows_arg
          $ value_range_arg $ seed_arg $ readahead_arg
          $ max_paths_arg $ max_queue_arg $ candidates_arg
          $ composite_width_arg $ prune_arg $ metrics_arg $ trace_spans_arg)

let simulate input segment k method_name rows value_range seed readahead max_paths
    max_queue max_candidates composite_width prune metrics trace =
  require_budget method_name k;
  with_obs ~metrics ~trace @@ fun () ->
  with_recommendation input segment k method_name rows value_range seed readahead
    ~max_paths ~max_queue ~max_candidates ~composite_width ~prune
    (fun db steps recommendation ->
      print_schedule steps recommendation segment;
      let report = Simulator.run db ~steps ~schedule:recommendation.Advisor.schedule in
      Printf.printf
        "replay: %d page accesses (%d execution + %d transitions), %d rows returned\n"
        report.Simulator.total_logical_io report.Simulator.exec_logical_io
        report.Simulator.trans_logical_io report.Simulator.rows_returned;
      0)

let simulate_cmd =
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Recommend a design for a trace, then replay the trace under it.")
    Term.(const simulate $ input_arg $ segment_arg $ k_arg $ method_arg $ rows_arg
          $ value_range_arg $ seed_arg $ readahead_arg
          $ max_paths_arg $ max_queue_arg $ candidates_arg
          $ composite_width_arg $ prune_arg $ metrics_arg $ trace_spans_arg)

(* -- experiment -------------------------------------------------------------- *)

let experiment name rows value_range seed scale readahead metrics trace =
  with_obs ~metrics ~trace @@ fun () ->
  let config = config_of ~readahead rows value_range seed scale in
  let session = lazy (Session.create config) in
  match String.lowercase_ascii name with
  | "table1" ->
      Cddpd_experiments.Table1.print (Cddpd_experiments.Table1.run ());
      0
  | "table2" ->
      Cddpd_experiments.Table2.print (Cddpd_experiments.Table2.run (Lazy.force session));
      0
  | "figure3" ->
      Cddpd_experiments.Figure3.print (Cddpd_experiments.Figure3.run (Lazy.force session));
      0
  | "figure4" ->
      Cddpd_experiments.Figure4.print (Cddpd_experiments.Figure4.run (Lazy.force session));
      0
  | "ablation" ->
      Cddpd_experiments.Ablation.print (Cddpd_experiments.Ablation.run (Lazy.force session));
      0
  | "updates" ->
      Cddpd_experiments.Updates.print (Cddpd_experiments.Updates.run (Lazy.force session));
      0
  | "views" ->
      Cddpd_experiments.Views.print (Cddpd_experiments.Views.run (Lazy.force session));
      0
  | "space" ->
      Cddpd_experiments.Space_bound.print (Cddpd_experiments.Space_bound.run (Lazy.force session));
      0
  | other ->
      Printf.eprintf "cddpd: unknown experiment %s (table1|table2|figure3|figure4|ablation|updates|views|space)\n"
        other;
      1

let experiment_cmd =
  let experiment_name =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"NAME" ~doc:"table1, table2, figure3, figure4, ablation, updates, views or space.")
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Reproduce one table or figure of the paper.")
    Term.(
      const experiment $ experiment_name $ rows_arg $ value_range_arg $ seed_arg
      $ scale_arg $ readahead_arg $ metrics_arg $ trace_spans_arg)

(* -- serve ------------------------------------------------------------------- *)

let serve_defaults = Server.default_config ~table:Setup.table_name

let regime_conv =
  let parse s =
    match Server.regime_of_string s with Ok r -> Ok r | Error m -> Error (`Msg m)
  in
  Arg.conv
    (parse, fun ppf r -> Format.pp_print_string ppf (Server.regime_to_string r))

let regime_arg =
  Arg.(value & opt regime_conv serve_defaults.Server.regime
       & info [ "regime" ] ~docv:"REGIME"
           ~doc:"Control regime: continuous (constrained re-optimization with \
                 guard and rollback), reactive (unguarded online-tuner \
                 baseline), or static (never change the design).")

let window_arg =
  Arg.(value & opt positive_int serve_defaults.Server.window
       & info [ "window" ] ~docv:"N" ~doc:"Statements per observation window.")

let history_arg =
  Arg.(value & opt positive_int serve_defaults.Server.history
       & info [ "history" ] ~docv:"N"
           ~doc:"Recent windows each re-optimization solves over.")

let horizon_arg =
  Arg.(value & opt positive_int serve_defaults.Server.horizon
       & info [ "horizon" ] ~docv:"N"
           ~doc:"Windows the regret guard projects forward.")

let drift_threshold_arg =
  Arg.(value & opt float serve_defaults.Server.drift_threshold
       & info [ "drift-threshold" ] ~docv:"F"
           ~doc:"Cost-identity histogram L1 distance that counts as workload \
                 drift (range 0-2; non-positive re-optimizes every window).")

let regret_budget_arg =
  Arg.(value & opt float serve_defaults.Server.regret_budget
       & info [ "regret-budget" ] ~docv:"F"
           ~doc:"Accept a transition only if its projected regret against the \
                 incumbent design is at most $(docv) cost units.")

let rollback_factor_arg =
  Arg.(value & opt float serve_defaults.Server.rollback_factor
       & info [ "rollback-factor" ] ~docv:"F"
           ~doc:"Roll a deployment back when its first window's measured I/O \
                 exceeds $(docv) times the what-if cost of the previous \
                 design.")

let serve_k_arg =
  Arg.(value & opt (int_at_least 0) serve_defaults.Server.k
       & info [ "k" ] ~docv:"K" ~doc:"Change budget per re-optimization.")

let serve_input_arg =
  Arg.(value & opt (some file) None
       & info [ "i"; "input" ] ~docv:"FILE"
           ~doc:"Replay this trace file instead of streaming from stdin.")

let status_json_arg =
  Arg.(value & flag
       & info [ "status" ]
           ~doc:"Emit the run summary as one JSON object (schema \
                 cddpd-serve/3) instead of per-window lines and a text \
                 summary.")

let action_to_string = function
  | Server.No_action -> "-"
  | Server.Held _ -> "held (recommendation = incumbent)"
  | Server.Deployed { design; projection = Some p; build_io } ->
      Printf.sprintf "deployed %s (regret %+.1f, build %d)" (Design.name design)
        p.Guard.regret build_io
  | Server.Deployed { design; projection = None; build_io } ->
      Printf.sprintf "deployed %s (unguarded, build %d)" (Design.name design)
        build_io
  | Server.Rejected { design; projection } ->
      Printf.sprintf "rejected %s (regret %+.1f over budget)"
        (Design.name design) projection.Guard.regret
  | Server.Rolled_back { restored; measured; expected; build_io } ->
      Printf.sprintf "rolled back to %s (measured %.0f vs %.0f expected, build %d)"
        (Design.name restored) measured expected build_io

let print_window_line r =
  Printf.printf "window %3d  %5d stmts  io %-8d drift %s%s  %s\n%!"
    r.Server.index r.Server.n_statements r.Server.exec_logical_io
    (match r.Server.drift with
    | None -> "     -"
    | Some d -> Printf.sprintf "%6.3f" d)
    (if r.Server.drifted then "!" else " ")
    (action_to_string r.Server.action)

let reopt_json (stats : Cddpd_core.Reopt.stats) =
  let reuse = stats.Cddpd_core.Reopt.reuse and cache = stats.Cddpd_core.Reopt.cache in
  Json.Object
    [
      ("reoptimizations", Json.int stats.Cddpd_core.Reopt.reoptimizations);
      ("warm_start_bounds", Json.int stats.Cddpd_core.Reopt.warm_start_bounds);
      ("builds_reused", Json.int reuse.Problem.Reuse.builds);
      ("exec_columns_reused", Json.int reuse.Problem.Reuse.exec_columns_reused);
      ("clusters_recosted", Json.int reuse.Problem.Reuse.clusters_recosted);
      ( "cache",
        Json.Object
          [
            ("hits", Json.int cache.Cddpd_engine.Cost_cache.hits);
            ("misses", Json.int cache.Cddpd_engine.Cost_cache.misses);
            ("evictions", Json.int cache.Cddpd_engine.Cost_cache.evictions);
          ] );
    ]

let report_json (r : Server.report) =
  let final_design =
    List.map Cddpd_catalog.Structure.name (Design.structures r.Server.final_design)
  in
  Json.to_string
    (Json.Object
       [
         ("schema", Json.String "cddpd-serve/3");
         ("regime", Json.String (Server.regime_to_string r.Server.regime));
         ("windows", Json.int (Array.length r.Server.windows));
         ("statements", Json.int r.Server.statements);
         ("residual_statements", Json.int r.Server.residual_statements);
         ("drift_events", Json.int r.Server.drift_events);
         ("reoptimizations", Json.int r.Server.reoptimizations);
         ("deployments", Json.int r.Server.deployments);
         ("rejections", Json.int r.Server.rejections); ("rollbacks", Json.int r.Server.rollbacks);
         ("exec_logical_io", Json.int r.Server.exec_logical_io);
         ("trans_logical_io", Json.int r.Server.trans_logical_io);
         ("final_design", Json.String (String.concat "," final_design));
         ("reopt", reopt_json r.Server.reopt);
       ])

let print_report (report : Server.report) =
  Printf.printf
    "serve: regime=%s windows=%d statements=%d (+%d residual)\n\
     serve: drift_events=%d reoptimizations=%d deployments=%d rejections=%d \
     rollbacks=%d\n\
     serve: exec_logical_io=%d trans_logical_io=%d final_design=%s\n"
    (Server.regime_to_string report.Server.regime)
    (Array.length report.Server.windows)
    report.Server.statements report.Server.residual_statements
    report.Server.drift_events report.Server.reoptimizations
    report.Server.deployments report.Server.rejections report.Server.rollbacks
    report.Server.exec_logical_io report.Server.trans_logical_io
    (Design.name report.Server.final_design)

(* The feed loop, for stdin and trace files alike: it replays raw
   statement text through Server.feed_sql, so the template cache sees the
   original strings — parsing up front would bypass the ingest fast path
   entirely.  Blank lines and [#] / [--] comment lines are skipped; a
   statement the server rejects is skipped with a warning naming its line,
   so bad input never stops the tuner. *)
let feed server ic =
  let rec loop i =
    match In_channel.input_line ic with
    | None -> ()
    | Some line ->
        let line = String.trim line in
        if line <> "" && line.[0] <> '#' && not (String.starts_with ~prefix:"--" line)
        then begin
          match Server.feed_sql server line with
          | Ok _ -> ()
          | Error message ->
              Printf.eprintf "cddpd serve: line %d: skipping statement: %s\n%!" i
                message
        end;
        loop (i + 1)
  in
  loop 1

let serve input regime window history horizon drift_threshold regret_budget
    rollback_factor k method_name rows value_range seed readahead status_json
    metrics trace =
  with_obs ~metrics ~trace @@ fun () ->
  let cfg =
    { serve_defaults with
      Server.regime; window; history; horizon; drift_threshold; regret_budget;
      rollback_factor; k; method_name }
  in
  let db = Setup.make_database (config_of ~readahead rows value_range seed 1.0) in
  let on_window = if status_json then fun _ -> () else print_window_line in
  let server = Server.create ~on_window db cfg in
  (match input with
  | None -> feed server stdin
  | Some path -> (
      try In_channel.with_open_text path (feed server)
      with Sys_error message ->
        prerr_endline ("cddpd: cannot load trace: " ^ message);
        exit 1));
  let report = Server.finish server in
  if status_json then print_endline (report_json report) else print_report report;
  0

let serve_cmd =
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the online continuous advisor over a statement stream: \
             windowed ingest, drift detection, constrained re-optimization \
             seeded at the current design, regret-guarded deployment, and \
             rollback on regression (see docs/SERVE.md).")
    Term.(const serve $ serve_input_arg $ regime_arg $ window_arg
          $ history_arg $ horizon_arg $ drift_threshold_arg $ regret_budget_arg
          $ rollback_factor_arg $ serve_k_arg $ method_arg $ rows_arg
          $ value_range_arg $ seed_arg $ readahead_arg $ status_json_arg
          $ metrics_arg $ trace_spans_arg)

(* -- main ---------------------------------------------------------------------- *)

let () =
  let doc = "constrained dynamic physical database design (ICDE'08 reproduction)" in
  let info = Cmd.info "cddpd" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ generate_cmd; recommend_cmd; simulate_cmd; experiment_cmd; serve_cmd ]))
