module Ast = Cddpd_sql.Ast
module Parser = Cddpd_sql.Parser
module Template = Cddpd_sql.Template
module Design = Cddpd_catalog.Design
module Structure = Cddpd_catalog.Structure
module Database = Cddpd_engine.Database
module Cost_model = Cddpd_engine.Cost_model
module Problem = Cddpd_core.Problem
module Config_space = Cddpd_core.Config_space
module Advisor = Cddpd_core.Advisor
module Solution = Cddpd_core.Solution
module Optimizer = Cddpd_core.Optimizer
module Online_tuner = Cddpd_core.Online_tuner
module Reopt = Cddpd_core.Reopt
module Candidates = Cddpd_core.Candidates
module Compress = Cddpd_workload.Compress
module Cost_key = Cddpd_engine.Cost_key
module Table_stats = Cddpd_engine.Table_stats
module Check = Cddpd_engine.Check
module Timer = Cddpd_util.Timer
module Obs = Cddpd_obs

let m_windows = Obs.Registry.counter "serve.windows"
let m_statements = Obs.Registry.counter "serve.statements"
let m_drift_events = Obs.Registry.counter "serve.drift_events"
let m_reoptimizations = Obs.Registry.counter "serve.reoptimizations"
let m_deployments = Obs.Registry.counter "serve.deployments"
let m_rejections = Obs.Registry.counter "serve.rejections"
let m_rollbacks = Obs.Registry.counter "serve.rollbacks"
let m_window_io = Obs.Registry.histogram "serve.window_io"
let m_regret = Obs.Registry.histogram "serve.regret"
let m_reopt_s = Obs.Registry.histogram "serve.reopt_s"
let m_ingest_rate = Obs.Registry.histogram "serve.ingest_statements_per_s"

(* The engine's what-if call counter (get-or-create returns the same
   counter Cost_model registered), snapshotted around each
   re-optimization so every window report carries its what-if bill.
   Deltas are zero when instrumentation is off. *)
let m_cost_model_calls = Obs.Registry.counter "cost_model.calls"

type regime = Static | Reactive | Continuous

let regime_to_string = function
  | Static -> "static"
  | Reactive -> "reactive"
  | Continuous -> "continuous"

let regime_of_string s =
  match String.lowercase_ascii s with
  | "static" -> Ok Static
  | "reactive" -> Ok Reactive
  | "continuous" -> Ok Continuous
  | other -> Error (Printf.sprintf "unknown regime %s (static|reactive|continuous)" other)

type config = {
  table : string;
  regime : regime;
  window : int;
  history : int;
  horizon : int;
  drift_threshold : float;
  regret_budget : float;
  rollback_factor : float;
  k : int;
  method_name : Solution.method_name;
  composite_pairs : int;
  max_structures_per_config : int option;
  space_bound_bytes : int option;
  jobs : int option;
  reopt_reuse : bool;
}

let default_config ~table =
  {
    table;
    regime = Continuous;
    window = 500;
    history = 4;
    horizon = 4;
    drift_threshold = Drift.default_threshold;
    regret_budget = 0.0;
    rollback_factor = 1.5;
    k = 2;
    method_name = Solution.Kaware;
    composite_pairs = 2;
    max_structures_per_config = Some 1;
    space_bound_bytes = None;
    jobs = None;
    reopt_reuse = true;
  }

type action =
  | No_action
  | Held of Guard.projection option
  | Deployed of {
      design : Design.t;
      projection : Guard.projection option;
      build_io : int;
    }
  | Rejected of { design : Design.t; projection : Guard.projection }
  | Rolled_back of {
      restored : Design.t;
      measured : float;
      expected : float;
      build_io : int;
    }

type window_report = {
  index : int;
  n_statements : int;
  design : Design.t;
  exec_logical_io : int;
  drift : float option;
  drifted : bool;
  action : action;
  reopt_s : float;
  reopt_whatif_calls : int;
}

type report = {
  regime : regime;
  windows : window_report array;
  statements : int;
  residual_statements : int;
  drift_events : int;
  reoptimizations : int;
  deployments : int;
  rejections : int;
  rollbacks : int;
  exec_logical_io : int;
  trans_logical_io : int;
  final_design : Design.t;
  reopt : Reopt.stats;
}

type probation = { prev_design : Design.t }

(* One closed window in the sliding history: the statements plus the
   cost-identity pass serve already paid for drift detection — the keys,
   whether every statement is on the served table (the keys are computed
   under that table's statistics), and the statistics snapshot they were
   computed under.  Each re-optimization carries the keys to its own
   snapshot ([rekey]): a statement is re-keyed only when
   [Cost_key.same_inputs] cannot prove its key unchanged, and the
   refreshed keys replace the old ones.  The window's candidate
   tally, taken over its cost-identity clusters (a representative per
   cluster, weighted by its size), is computed the first time a
   re-optimization reads it, then kept: a window that ages through the
   history is tallied once, and a window no re-optimization reads is
   never tallied. *)
type history_window = {
  h_statements : Ast.statement array;
  h_keys : Cost_key.id array;
  h_uniform : bool;
  mutable h_stats : Table_stats.t;
  h_tally : Candidates.tally Lazy.t;
}

type t = {
  db : Database.t;
  cfg : config;
  reopt : Reopt.t;
  on_window : window_report -> unit;
  buf : Ast.statement array;
  buf_keys : Cost_key.id array;  (* feed-time cost keys; [no_key] for deferred DML *)
  buf_stats : Table_stats.t array;  (* each key's feed-time snapshot; [no_stats] for deferred DML *)
  mutable snapshot_gen : int;  (* the statistics generation [snapshot] belongs to; -1 = none yet *)
  mutable snapshot : Table_stats.t;
  parse_cache : (Database.prepared, Cost_key.id) Template.t;
  mutable window_started_s : float;  (* wall clock at first feed of the window; 0 = unset *)
  mutable fill : int;
  mutable window_index : int;
  mutable window_io : int;  (* measured exec I/O of the open window *)
  mutable history_windows : history_window list;  (* newest first *)
  mutable prev_profile : Drift.profile option;
  mutable probation : probation option;
  mutable reports : window_report list;  (* newest first *)
  mutable statements : int;
  mutable exec_io : int;
  mutable trans_io : int;
  mutable drift_events : int;
  mutable reoptimizations : int;
  mutable deployments : int;
  mutable rejections : int;
  mutable rollbacks : int;
}

(* The key slot of a DML statement until window close keys it, and its
   snapshot slot, told apart physically. *)
let no_key = Cost_key.id ""

let no_stats = Table_stats.make ~row_count:0 ~page_count:0 ~histograms:[]

let create ?(on_window = fun _ -> ()) db cfg =
  if cfg.window <= 0 then invalid_arg "Server.create: window must be positive";
  if cfg.history <= 0 then invalid_arg "Server.create: history must be positive";
  if cfg.horizon <= 0 then invalid_arg "Server.create: horizon must be positive";
  (match Database.schema db cfg.table with
  | Some _ -> ()
  | None -> invalid_arg (Printf.sprintf "Server.create: unknown table %s" cfg.table));
  {
    db;
    cfg;
    reopt = Reopt.create ~reuse:cfg.reopt_reuse db;
    on_window;
    buf = Array.make cfg.window (Ast.Select { projection = Ast.Star; table = cfg.table; where = [] });
    buf_keys = Array.make cfg.window no_key;
    buf_stats = Array.make cfg.window no_stats;
    snapshot_gen = -1;
    snapshot = no_stats;
    parse_cache = Template.create ();
    window_started_s = 0.0;
    fill = 0;
    window_index = 0;
    window_io = 0;
    history_windows = [];
    prev_profile = None;
    probation = None;
    reports = [];
    statements = 0;
    exec_io = 0;
    trans_io = 0;
    drift_events = 0;
    reoptimizations = 0;
    deployments = 0;
    rejections = 0;
    rollbacks = 0;
  }

let reopt_stats t = Reopt.stats t.reopt

let template_stats t = Template.stats t.parse_cache

let statement_cache t = t.parse_cache

(* Every computed cost key becomes the database's id for it, hashed
   once; equal keys share one id physically, so every later clustering
   pass reads the stored hash and compares ids with one [==], and a read
   finds its memoized plan on the id itself. *)
let cost_id t stats statement = Database.cost_id t.db (Cost_key.statement stats statement)

(* The served table's statistics snapshot of generation [gen]: a
   generation has at most one snapshot, so it is fetched once per
   generation.  (Lazy materialization inside [table_stats] never bumps
   the generation, so reading the generation first is safe.) *)
let snapshot t gen =
  if gen <> t.snapshot_gen then begin
    t.snapshot <- Database.table_stats t.db t.cfg.table;
    t.snapshot_gen <- gen
  end;
  t.snapshot

(* Feed-time half of the one-pass cost-identity pipeline: key a read-only
   statement under the served table's *current* statistics, returned
   with that snapshot so window close can prove the key is the one its
   own pass would compute.  A cached text reuses its tag while the
   generation matches — the common case, since only DML moves it. *)
let feed_key t entry statement =
  let gen = Database.stats_generation t.db t.cfg.table in
  let stats = snapshot t gen in
  match (entry : (_, Cost_key.id) Template.entry option) with
  | Some { Template.cost_tag = Some (g, key); _ } when g = gen -> (key, stats)
  | Some entry ->
      let key = cost_id t stats statement in
      entry.Template.cost_tag <- Some (gen, key);
      (key, stats)
  | None -> (cost_id t stats statement, stats)

(* Carry a history window's keys to the snapshot [stats]: a key is kept
   when [Cost_key.same_inputs], prepared once for the window's snapshot
   pair, proves it unchanged, recomputed otherwise. *)
let rekey t ~stats h =
  if h.h_stats != stats then begin
    let same = Cost_key.same_inputs ~was:h.h_stats ~now:stats in
    Array.iteri
      (fun i statement ->
        if not (same statement) then h.h_keys.(i) <- cost_id t stats statement)
      h.h_statements;
    h.h_stats <- stats
  end

let schema t =
  match Database.schema t.db t.cfg.table with
  | Some schema -> schema
  | None -> assert false (* checked by [create] *)

(* The candidate structures of a re-optimization: derived from the merged
   tallies of the windows it optimizes over, plus whatever the incumbent
   design already materialises — C0 must be a configuration of the space
   it is the seed of. *)
let candidate_structures t windows =
  Obs.Span.with_span "serve.candidates" @@ fun () ->
  let tally =
    List.fold_left
      (fun acc h -> Candidates.merge acc (Lazy.force h.h_tally))
      Candidates.empty_tally windows
  in
  let derived =
    Candidates.structures_of_tally (schema t) ~composite_pairs:t.cfg.composite_pairs tally
  in
  let incumbent = Design.structures (Database.current_design t.db) in
  derived
  @ List.filter (fun s -> not (List.exists (Structure.equal s) derived)) incumbent

(* Cap on structures per configuration: the configured cap, raised if the
   incumbent design is already larger (it must remain representable). *)
let max_structures t =
  let incumbent = Design.cardinality (Database.current_design t.db) in
  Option.map (fun m -> max m incumbent) t.cfg.max_structures_per_config

(* One problem over the given history windows, oldest first: one step per
   window. *)
let build_problem ?statement_keys t windows =
  let steps = Array.of_list (List.map (fun h -> h.h_statements) windows) in
  let request =
    {
      (Advisor.default_request ~steps ~table:t.cfg.table) with
      Advisor.candidates = Some (candidate_structures t windows);
      max_structures_per_config = max_structures t;
      space_bound_bytes = t.cfg.space_bound_bytes;
      initial = Database.current_design t.db;
      count_initial_change = true;
    }
  in
  Reopt.build_problem ?statement_keys t.reopt request

let migrate_measured t target =
  let logical_before, _ = Database.io_counters t.db in
  Obs.Span.with_span "serve.deploy" (fun () -> Database.migrate_to t.db target);
  let logical_after, _ = Database.io_counters t.db in
  let build_io = logical_after - logical_before in
  t.trans_io <- t.trans_io + build_io;
  build_io

(* Rollback check: the window that just closed ran under a design deployed
   one window ago.  Compare its measured I/O against the what-if cost of
   the pre-deployment design on the same statements; a regression beyond
   [rollback_factor] restores the previous design.  [clustering] groups
   the window by its cost keys under [stats], so equal keys cost the same:
   each cluster's representative is costed once, and the cluster costs
   are summed in statement order — the floats, and the order, of the
   per-statement fold. *)
let check_probation t ~stats ~window ~clustering ~measured_io =
  match t.probation with
  | None -> None
  | Some { prev_design } ->
      t.probation <- None;
      let params = Database.params t.db in
      let costs =
        Array.map
          (fun i -> Cost_model.statement_cost params stats prev_design window.(i))
          clustering.Compress.representatives
      in
      let expected =
        Array.fold_left (fun acc c -> acc +. costs.(c)) 0.0 clustering.Compress.cluster_of
      in
      let measured = float_of_int measured_io in
      if measured > t.cfg.rollback_factor *. expected then begin
        let build_io = migrate_measured t prev_design in
        t.rollbacks <- t.rollbacks + 1;
        Obs.Counter.incr m_rollbacks;
        Some (Rolled_back { restored = prev_design; measured; expected; build_io })
      end
      else None

(* The per-window cost-identity keys double as the build's statement keys
   once every window is carried to the current snapshot: only statements
   whose key inputs moved are re-keyed.  Keys are computed under the
   served table's statistics, so a window with a statement on another
   table passes none. *)
let history_keys t =
  Obs.Span.with_span "serve.rekey" @@ fun () ->
  let history = List.rev t.history_windows in
  if List.for_all (fun h -> h.h_uniform) history then begin
    let stats = Database.table_stats t.db t.cfg.table in
    List.iter (rekey t ~stats) history;
    Some (Array.concat (List.map (fun h -> h.h_keys) history))
  end
  else None

(* One constrained re-optimization over the recent windows, seeded with
   the incumbent design as C0, guarded before deployment. *)
let reoptimize_continuous t =
  let history = List.rev t.history_windows in
  let problem = build_problem ?statement_keys:(history_keys t) t history in
  let incumbent = Database.current_design t.db in
  match
    Reopt.solve t.reopt problem ~method_name:t.cfg.method_name ~k:t.cfg.k
  with
  | Error (Optimizer.Infeasible | Optimizer.Ranking_gave_up _) -> Held None
  | Ok solution -> (
      let target = solution.Solution.path.(Array.length solution.Solution.path - 1) in
      match
        Guard.assess problem ~target ~horizon:t.cfg.horizon
          ~budget:t.cfg.regret_budget
      with
      | Guard.No_change -> Held None
      | Guard.Accept projection ->
          Obs.Histogram.observe m_regret projection.Guard.regret;
          let design = Config_space.design problem.Problem.space target in
          let build_io = migrate_measured t design in
          t.deployments <- t.deployments + 1;
          Obs.Counter.incr m_deployments;
          t.probation <- Some { prev_design = incumbent };
          Deployed { design; projection = Some projection; build_io }
      | Guard.Reject projection ->
          Obs.Histogram.observe m_regret projection.Guard.regret;
          t.rejections <- t.rejections + 1;
          Obs.Counter.incr m_rejections;
          Rejected
            { design = Config_space.design problem.Problem.space target; projection })

(* The reactive baseline: the Online_tuner policy applied at window
   granularity — no constraint, no guard, no probation. *)
let reoptimize_reactive t window =
  let statement_keys = if window.h_uniform then Some window.h_keys else None in
  let problem = build_problem ?statement_keys t [ window ] in
  let initial = problem.Problem.initial in
  let params =
    { Online_tuner.default_params with Online_tuner.horizon = t.cfg.horizon }
  in
  let decision =
    Online_tuner.decide ~params
      ~window_cost:(fun c -> problem.Problem.exec.(0).(c))
      ~trans_cost:(fun c -> problem.Problem.trans.(initial).(c))
      ~n_configs:(Problem.n_configs problem)
      ~current:initial ~window_len:1.0 ()
  in
  if decision = initial then Held None
  else begin
    let design = Config_space.design problem.Problem.space decision in
    let build_io = migrate_measured t design in
    t.deployments <- t.deployments + 1;
    Obs.Counter.incr m_deployments;
    Deployed { design; projection = None; build_io }
  end

let close_window t window fed_keys fed_stats =
  Obs.Span.with_span "serve.window" @@ fun () ->
  (if t.window_started_s > 0.0 then begin
     let elapsed = Obs.Span.now_s () -. t.window_started_s in
     if elapsed > 0.0 then
       Obs.Histogram.observe m_ingest_rate
         (float_of_int (Array.length window) /. elapsed);
     t.window_started_s <- 0.0
   end);
  let index = t.window_index in
  let served_design = Database.current_design t.db in
  let measured_io = t.window_io in
  let stats = Database.table_stats t.db t.cfg.table in
  (* Close-time half of the one-pass cost-identity pipeline: a key fed
     under the current snapshot *is* the key this pass would compute, so
     it rides through untouched.  A key fed under an older snapshot
     (before mid-window DML) is kept too when [Cost_key.same_inputs],
     prepared once per snapshot pair, proves it unchanged, the rule
     [rekey] applies to the history; the rest, and every deferred DML
     statement, is keyed here.  The keys feed drift detection and the
     incremental problem build. *)
  let keys =
    if Array.for_all (fun was -> was == stats) fed_stats then fed_keys
    else
      Obs.Span.with_span "serve.close_keys" @@ fun () ->
      let proof = ref (no_stats, fun _ -> false) in
      let unchanged was statement =
        was != no_stats
        && begin
             if fst !proof != was then proof := (was, Cost_key.same_inputs ~was ~now:stats);
             snd !proof statement
           end
      in
      Array.mapi
        (fun i s ->
          let was = fed_stats.(i) in
          if was == stats || unchanged was s then fed_keys.(i)
          else cost_id t stats s)
        window
  in
  let clustering, profile =
    Obs.Span.with_span "serve.drift" @@ fun () ->
    let clustering = Compress.cluster_by ~hash:Cost_key.id_hash ~equal:Cost_key.id_equal keys in
    (clustering, Drift.profile_of_clustering ~keys clustering)
  in
  let closed =
    {
      h_statements = window;
      h_keys = keys;
      h_uniform =
        Array.for_all (fun s -> String.equal (Ast.table_of s) t.cfg.table) window;
      h_stats = stats;
      h_tally =
        lazy
          (let reps = clustering.Compress.representatives in
           Candidates.tally_weighted (schema t)
             (Array.map (fun i -> window.(i)) reps)
             ~weights:clustering.Compress.counts);
    }
  in
  let drift = Option.map (fun prev -> Drift.distance prev profile) t.prev_profile in
  let drifted =
    match drift with Some d -> d > t.cfg.drift_threshold | None -> false
  in
  if drifted then begin
    t.drift_events <- t.drift_events + 1;
    Obs.Counter.incr m_drift_events
  end;
  t.history_windows <- closed :: t.history_windows;
  (if List.length t.history_windows > t.cfg.history then
     t.history_windows <-
       List.filteri (fun i _ -> i < t.cfg.history) t.history_windows);
  let whatif_before = ref 0 in
  let reoptimize label f =
    t.reoptimizations <- t.reoptimizations + 1;
    Obs.Counter.incr m_reoptimizations;
    whatif_before := Obs.Counter.value m_cost_model_calls;
    let action, elapsed =
      Timer.time (fun () -> Obs.Span.with_span label (fun () -> f ()))
    in
    Obs.Histogram.observe m_reopt_s elapsed;
    (action, elapsed, Obs.Counter.value m_cost_model_calls - !whatif_before)
  in
  let action, reopt_s, reopt_whatif_calls =
    match check_probation t ~stats ~window ~clustering ~measured_io with
    | Some rolled_back -> (rolled_back, 0.0, 0)
    | None -> (
        match t.cfg.regime with
        | Static -> (No_action, 0.0, 0)
        | Reactive -> reoptimize "serve.reoptimize" (fun () -> reoptimize_reactive t closed)
        | Continuous ->
            if index = 0 || drifted then
              reoptimize "serve.reoptimize" (fun () ->
                  reoptimize_continuous t)
            else (No_action, 0.0, 0))
  in
  t.prev_profile <- Some profile;
  t.window_index <- index + 1;
  t.window_io <- 0;
  Obs.Counter.incr m_windows;
  Obs.Histogram.observe m_window_io (float_of_int measured_io);
  let report =
    {
      index;
      n_statements = Array.length window;
      design = served_design;
      exec_logical_io = measured_io;
      drift;
      drifted;
      action;
      reopt_s;
      reopt_whatif_calls;
    }
  in
  t.reports <- report :: t.reports;
  t.on_window report;
  report

(* [plan_memo] passes the statement's cost key to the plan memo; only the
   ingest path ({!feed_sql}) sets it, so {!feed} stays the memo-free
   reference. *)
let feed_statement t ~plan_memo ?entry prepared statement =
  if t.fill = 0 && Obs.Registry.enabled () then
    t.window_started_s <- Obs.Span.now_s ();
  let read_only = Ast.is_read_only statement in
  (* Key read-only statements now; defer DML to window close — keying DML
     here would force a histogram rebuild that its own execution is about
     to invalidate. *)
  let key, stats = if read_only then feed_key t entry statement else (no_key, no_stats) in
  (* The plan memo only understands keys computed under the statement's
     own table's statistics; serve keys everything under the served table
     (the drift convention), so only that table's reads pass one. *)
  let statement_key =
    if plan_memo && read_only && String.equal (Ast.table_of statement) t.cfg.table then
      Some key
    else None
  in
  let result = Database.run ?statement_key t.db prepared in
  t.statements <- t.statements + 1;
  t.exec_io <- t.exec_io + result.Database.logical_io;
  t.window_io <- t.window_io + result.Database.logical_io;
  Obs.Counter.incr m_statements;
  t.buf.(t.fill) <- statement;
  t.buf_keys.(t.fill) <- key;
  t.buf_stats.(t.fill) <- stats;
  t.fill <- t.fill + 1;
  if t.fill = t.cfg.window then begin
    let window = Array.sub t.buf 0 t.fill in
    let keys = Array.sub t.buf_keys 0 t.fill in
    let snapshots = Array.sub t.buf_stats 0 t.fill in
    t.fill <- 0;
    Some (close_window t window keys snapshots)
  end
  else None

(* Semantic validation runs before the statement is keyed, executed or
   buffered, so a statement the schema rejects is skipped like a lexical
   error. *)
let feed t statement =
  match Check.statement (Database.tables t.db) statement with
  | Error e -> Error e
  | Ok () -> Ok (feed_statement t ~plan_memo:false (Database.prepare statement) statement)

(* A cache entry remembers that its statement passed the check: repeated
   texts skip it.  [validated] also tells a repeated text from a first
   sight: a text runs its first execution on a transient handle and keeps
   one from its second on, so a text seen once keeps nothing. *)
let feed_sql t sql =
  match Parser.parse_cached t.parse_cache sql with
  | Error e -> Error e
  | Ok entry -> (
      let statement = entry.Template.statement in
      let validated = entry.Template.validated in
      match if validated then Ok () else Check.statement (Database.tables t.db) statement with
      | Error e -> Error e
      | Ok () ->
          let prepared =
            match entry.Template.prepared with
            | Some prepared -> prepared
            | None when validated ->
                let prepared = Database.prepare statement in
                entry.Template.prepared <- Some prepared;
                prepared
            | None ->
                entry.Template.validated <- true;
                Database.prepare statement
          in
          Ok (feed_statement t ~plan_memo:true ~entry prepared statement))

let finish t =
  {
    regime = t.cfg.regime;
    windows = Array.of_list (List.rev t.reports);
    statements = t.statements;
    residual_statements = t.fill;
    drift_events = t.drift_events;
    reoptimizations = t.reoptimizations;
    deployments = t.deployments;
    rejections = t.rejections;
    rollbacks = t.rollbacks;
    exec_logical_io = t.exec_io;
    trans_logical_io = t.trans_io;
    final_design = Database.current_design t.db;
    reopt = Reopt.stats t.reopt;
  }
