(* Serve-loop tests: drift detection fixtures, the regret guard, windowed
   ingest determinism across worker counts, guard rejection end to end,
   and rollback on a post-deploy regression. *)

module Schema = Cddpd_catalog.Schema
module Index_def = Cddpd_catalog.Index_def
module Design = Cddpd_catalog.Design
module Structure = Cddpd_catalog.Structure
module Ast = Cddpd_sql.Ast
module Parser = Cddpd_sql.Parser
module Database = Cddpd_engine.Database
module Config_space = Cddpd_core.Config_space
module Problem = Cddpd_core.Problem
module Drift = Cddpd_serve.Drift
module Guard = Cddpd_serve.Guard
module Server = Cddpd_serve.Server

let paper_schema =
  Schema.table "t"
    [
      ("a", Schema.Int_type);
      ("b", Schema.Int_type);
      ("c", Schema.Int_type);
      ("d", Schema.Int_type);
    ]

let rows = 4_000
let value_range = rows / 5

let make_db () =
  let db = Database.create ~pool_capacity:2048 [ paper_schema ] in
  let data =
    Cddpd_workload.Data_gen.uniform_rows ~columns:4 ~rows ~value_range ~seed:3
  in
  Database.load db ~table:"t" data;
  Database.analyze db;
  db

(* [n] point queries on [column], values cycling through the domain. *)
let phase column n =
  Array.init n (fun i ->
      Parser.parse_exn
        (Printf.sprintf "SELECT * FROM t WHERE %s = %d" column
           (1 + ((i * 37) mod value_range))))

(* The whole trace through one server: create, feed every statement,
   finish.  A statement the server rejects is skipped. *)
let serve_all db cfg trace =
  let server = Server.create db cfg in
  Array.iter (fun statement -> ignore (Server.feed server statement)) trace;
  Server.finish server

(* -- Drift ----------------------------------------------------------------- *)

let test_drift_identical_windows () =
  let db = make_db () in
  let stats = Database.table_stats db "t" in
  let w = phase "a" 50 in
  let p = Drift.profile ~stats w in
  Alcotest.(check (float 1e-9)) "distance to self" 0.0 (Drift.distance p p);
  Alcotest.(check bool) "no drift" false (Drift.drifted p p)

let test_drift_disjoint_windows () =
  let db = make_db () in
  let stats = Database.table_stats db "t" in
  let pa = Drift.profile ~stats (phase "a" 50) in
  let pc = Drift.profile ~stats (phase "c" 50) in
  let d = Drift.distance pa pc in
  Alcotest.(check bool) "disjoint phases are far apart" true (d > 1.5);
  Alcotest.(check bool) "drifted" true (Drift.drifted pa pc);
  Alcotest.(check (float 1e-9)) "symmetric" d (Drift.distance pc pa)

let test_drift_mixture_is_between () =
  let db = make_db () in
  let stats = Database.table_stats db "t" in
  let pa = Drift.profile ~stats (phase "a" 50) in
  let mixed =
    Drift.profile ~stats (Array.append (phase "a" 25) (phase "c" 25))
  in
  let d = Drift.distance pa mixed in
  Alcotest.(check bool) "mixture is closer than disjoint" true (d < 1.5);
  Alcotest.(check bool) "but not identical" true (d > 0.0)

let test_drift_empty_profile () =
  let db = make_db () in
  let stats = Database.table_stats db "t" in
  let p = Drift.profile ~stats (phase "a" 10) in
  Alcotest.(check (list (pair string (float 1e-9)))) "empty window" []
    (Drift.profile ~stats [||]);
  Alcotest.(check (float 1e-9)) "mass of a full profile" 1.0
    (List.fold_left (fun acc (_, f) -> acc +. f) 0.0 p);
  Alcotest.(check (float 1e-9)) "distance to empty is total mass" 1.0
    (Drift.distance p [])

(* -- Guard ----------------------------------------------------------------- *)

(* Two configs over one step: staying costs 100/step, the alternative costs
   10/step after a 200-unit build. *)
let guard_problem () =
  let space =
    Config_space.of_designs
      [ Design.empty; Design.singleton (Index_def.make ~table:"t" ~columns:[ "a" ]) ]
  in
  Problem.of_matrices
    ~steps:[| [| Parser.parse_exn "SELECT * FROM t WHERE a = 1" |] |]
    ~space ~initial:0
    ~exec:[| [| 100.0; 10.0 |] |]
    ~trans:[| [| 0.0; 200.0 |]; [| 150.0; 0.0 |] |]
    ()

let test_guard_no_change () =
  let problem = guard_problem () in
  match Guard.assess problem ~target:0 ~horizon:4 ~budget:0.0 with
  | Guard.No_change -> ()
  | _ -> Alcotest.fail "expected No_change for the incumbent"

let test_guard_accept () =
  let problem = guard_problem () in
  (* horizon 4: baseline 400, projected 200 + 40 = 240, regret -160. *)
  match Guard.assess problem ~target:1 ~horizon:4 ~budget:0.0 with
  | Guard.Accept p ->
      Alcotest.(check (float 1e-9)) "baseline" 400.0 p.Guard.baseline;
      Alcotest.(check (float 1e-9)) "projected" 240.0 p.Guard.projected;
      Alcotest.(check (float 1e-9)) "regret" (-160.0) p.Guard.regret
  | _ -> Alcotest.fail "expected Accept at horizon 4"

let test_guard_reject_short_horizon () =
  let problem = guard_problem () in
  (* horizon 1: baseline 100, projected 210, regret +110 — the build cannot
     be amortized before the horizon ends. *)
  (match Guard.assess problem ~target:1 ~horizon:1 ~budget:0.0 with
  | Guard.Reject p ->
      Alcotest.(check (float 1e-9)) "regret" 110.0 p.Guard.regret
  | _ -> Alcotest.fail "expected Reject at horizon 1");
  (* ... unless the budget absorbs the projected loss. *)
  match Guard.assess problem ~target:1 ~horizon:1 ~budget:110.0 with
  | Guard.Accept _ -> ()
  | _ -> Alcotest.fail "expected Accept with an absorbing budget"

let test_guard_validates () =
  let problem = guard_problem () in
  Alcotest.check_raises "horizon" (Invalid_argument "Guard.assess: horizon must be >= 1")
    (fun () -> ignore (Guard.assess problem ~target:1 ~horizon:0 ~budget:0.0));
  Alcotest.check_raises "target" (Invalid_argument "Guard.assess: target out of range")
    (fun () -> ignore (Guard.assess problem ~target:2 ~horizon:1 ~budget:0.0))

(* -- Server ---------------------------------------------------------------- *)

let serve_config ?(regime = Server.Continuous) ?(window = 50) () =
  { (Server.default_config ~table:"t") with Server.regime; window }

(* A drifting trace: three windows on [a], then one on [c], then [a] again. *)
let drifting_trace ~window =
  Array.concat
    [ phase "a" (3 * window); phase "c" window; phase "a" (2 * window) ]

let action_fingerprint = function
  | Server.No_action -> "none"
  | Server.Held _ -> "held"
  | Server.Deployed { design; _ } -> "deploy:" ^ Design.name design
  | Server.Rejected { design; _ } -> "reject:" ^ Design.name design
  | Server.Rolled_back { restored; _ } -> "rollback:" ^ Design.name restored

let window_fingerprint (w : Server.window_report) =
  Printf.sprintf "%d:%d:%d:%s:%b:%s" w.Server.index w.Server.n_statements
    w.Server.exec_logical_io
    (match w.Server.drift with None -> "-" | Some d -> Printf.sprintf "%.12f" d)
    w.Server.drifted
    (action_fingerprint w.Server.action)

let report_fingerprint (r : Server.report) =
  String.concat "\n"
    (Printf.sprintf "%s:%d:%d:%d:%d:%d:%d:%d:%d:%s"
       (Server.regime_to_string r.Server.regime)
       r.Server.statements r.Server.residual_statements r.Server.drift_events
       r.Server.reoptimizations r.Server.deployments r.Server.rejections
       r.Server.rollbacks r.Server.exec_logical_io
       (Design.name r.Server.final_design)
    :: Array.to_list (Array.map window_fingerprint r.Server.windows))

let test_serve_windowing () =
  let window = 50 in
  let cfg = serve_config ~window () in
  let report =
    serve_all (make_db ()) cfg (phase "a" ((2 * window) + 7))
  in
  Alcotest.(check int) "two closed windows" 2 (Array.length report.Server.windows);
  Alcotest.(check int) "residual" 7 report.Server.residual_statements;
  Alcotest.(check int) "all statements executed" ((2 * window) + 7)
    report.Server.statements;
  Array.iteri
    (fun i w ->
      Alcotest.(check int) "window index" i w.Server.index;
      Alcotest.(check int) "window size" window w.Server.n_statements)
    report.Server.windows

let test_serve_continuous_deploys_on_drift () =
  let window = 50 in
  let report =
    serve_all (make_db ()) (serve_config ~window ()) (drifting_trace ~window)
  in
  Alcotest.(check bool) "saw drift" true (report.Server.drift_events >= 1);
  Alcotest.(check bool) "re-optimized" true (report.Server.reoptimizations >= 1);
  Alcotest.(check bool) "deployed" true (report.Server.deployments >= 1);
  (* The steady [a] phases dominate; the serve loop must end on I(a). *)
  Alcotest.(check string) "settled on the a-phase index" "{I(a)}"
    (Design.name report.Server.final_design)

let test_serve_static_never_changes () =
  let window = 50 in
  let report =
    serve_all (make_db ())
      (serve_config ~regime:Server.Static ~window ())
      (drifting_trace ~window)
  in
  Alcotest.(check int) "no re-optimizations" 0 report.Server.reoptimizations;
  Alcotest.(check int) "no deployments" 0 report.Server.deployments;
  Alcotest.(check bool) "design untouched" true
    (Design.is_empty report.Server.final_design);
  Alcotest.(check int) "no migration I/O" 0 report.Server.trans_logical_io

let test_serve_regret_guard_rejects () =
  let window = 50 in
  let cfg =
    { (serve_config ~window ()) with Server.regret_budget = -1e9 }
  in
  let report = serve_all (make_db ()) cfg (drifting_trace ~window) in
  Alcotest.(check int) "nothing deployed" 0 report.Server.deployments;
  Alcotest.(check bool) "recommendations were rejected" true
    (report.Server.rejections >= 1);
  Alcotest.(check bool) "design untouched" true
    (Design.is_empty report.Server.final_design);
  Array.iter
    (fun w ->
      match w.Server.action with
      | Server.Rejected { projection; _ } ->
          Alcotest.(check bool) "rejected regret exceeds budget" true
            (projection.Guard.regret > cfg.Server.regret_budget)
      | _ -> ())
    report.Server.windows

let test_serve_rollback_on_regression () =
  let window = 50 in
  (* a, a, a, c, a, a: the lone [c] window deploys I(c); the next [a]
     window regresses against the what-if cost of the rolled-over design
     and must trigger the rollback path. *)
  let report =
    serve_all (make_db ()) (serve_config ~window ()) (drifting_trace ~window)
  in
  Alcotest.(check bool) "rollback fired" true (report.Server.rollbacks >= 1);
  let saw_rollback = ref false in
  Array.iter
    (fun w ->
      match w.Server.action with
      | Server.Rolled_back { restored; measured; expected; _ } ->
          saw_rollback := true;
          Alcotest.(check bool) "regression was real" true
            (measured > expected);
          Alcotest.(check string) "restored the pre-deploy design" "{I(a)}"
            (Design.name restored)
      | _ -> ())
    report.Server.windows;
  Alcotest.(check bool) "rollback visible in a window report" true !saw_rollback

(* Probation composes the window's cost from its clusters.  The probation
   window mixes repeated reads, an aggregate, DML and a statement on a
   second table, under a pre-deployment design with a view: [expected]
   must be the per-statement [statement_cost] fold, bit for bit, and the
   rollback decision the one that fold implies. *)
let test_serve_probation_composes_clusters () =
  let window = 50 in
  let other = Schema.table "u" [ ("x", Schema.Int_type); ("y", Schema.Int_type) ] in
  let make () =
    let db = Database.create ~pool_capacity:2048 [ paper_schema; other ] in
    Database.load db ~table:"t"
      (Cddpd_workload.Data_gen.uniform_rows ~columns:4 ~rows ~value_range ~seed:3);
    Database.load db ~table:"u"
      (Cddpd_workload.Data_gen.uniform_rows ~columns:2 ~rows:500 ~value_range:50 ~seed:4);
    Database.analyze db;
    Database.migrate_to db
      (Design.add_structure
         (Structure.view (Cddpd_catalog.View_def.make ~table:"t" ~group_by:"b"))
         Design.empty);
    db
  in
  let probation_window =
    Array.init window (fun i ->
        Parser.parse_exn
          (match i mod 10 with
          | 0 -> "SELECT b, COUNT(*) FROM t GROUP BY b"
          | 1 -> Printf.sprintf "INSERT INTO t VALUES (%d, %d, %d, %d)" i (i mod 7) i 3
          | 2 -> Printf.sprintf "UPDATE t SET c = %d WHERE a = %d" i (1 + i)
          | 3 -> Printf.sprintf "DELETE FROM t WHERE b = %d" (600 + i)
          | 4 -> Printf.sprintf "SELECT y FROM u WHERE x = %d" (i mod 3)
          | j -> Printf.sprintf "SELECT * FROM t WHERE a = %d" (1 + (j mod 2 * 37))))
  in
  let trace = Array.append (phase "a" window) probation_window in
  let run rollback_factor =
    let db = make () in
    let prev_design = Database.current_design db in
    let report =
      serve_all db { (serve_config ~window ()) with Server.rollback_factor } trace
    in
    Alcotest.(check bool) "window 0 deployed" true
      (match report.Server.windows.(0).Server.action with
      | Server.Deployed _ -> true
      | _ -> false);
    let stats = Database.table_stats db "t" in
    let fold =
      Array.fold_left
        (fun acc s ->
          acc +. Cddpd_engine.Cost_model.statement_cost (Database.params db) stats prev_design s)
        0.0 probation_window
    in
    (report.Server.windows.(1), fold)
  in
  (* A zero factor rolls back on any I/O, which exposes [expected]. *)
  (match run 0.0 with
  | { Server.action = Server.Rolled_back { expected; _ }; _ }, fold ->
      Alcotest.(check bool) "expected = per-statement fold (bits)" true
        (Int64.equal (Int64.bits_of_float expected) (Int64.bits_of_float fold))
  | _ -> Alcotest.fail "probation window should roll back at factor 0");
  let factor = (Server.default_config ~table:"t").Server.rollback_factor in
  let w, fold = run factor in
  Alcotest.(check bool) "rollback decision = the fold's"
    (float_of_int w.Server.exec_logical_io > factor *. fold)
    (match w.Server.action with Server.Rolled_back _ -> true | _ -> false)

let test_serve_reactive_unguarded () =
  let window = 50 in
  let report =
    serve_all (make_db ())
      (serve_config ~regime:Server.Reactive ~window ())
      (drifting_trace ~window)
  in
  Alcotest.(check int) "reactive re-optimizes every window" 6
    report.Server.reoptimizations;
  Alcotest.(check int) "no guard, no rejections" 0 report.Server.rejections;
  Alcotest.(check int) "no probation, no rollbacks" 0 report.Server.rollbacks;
  Array.iter
    (fun w ->
      match w.Server.action with
      | Server.Deployed { projection; _ } ->
          Alcotest.(check bool) "reactive deployments carry no projection" true
            (projection = None)
      | _ -> ())
    report.Server.windows

let test_serve_reopt_every_window_when_threshold_nonpositive () =
  let window = 50 in
  let cfg = { (serve_config ~window ()) with Server.drift_threshold = -1.0 } in
  let report = serve_all (make_db ()) cfg (phase "a" (3 * window)) in
  Alcotest.(check int) "every window re-optimizes" 3
    report.Server.reoptimizations

(* The keys a continuous re-optimization hands Problem.build
   ([Server.history_keys]) must equal fresh [Cost_key.statement] keys of
   the history's statements under the current statistics, after every
   window of a stream whose writes move each input a key reads: UPDATEs
   of a non-key column (the page count can grow while the row count and
   every read histogram stay), UPDATEs of a predicate column (a histogram
   moves while the counts stay), INSERTs and DELETEs (the row count
   moves).  INSERTs and DELETEs are rare, so some windows add a heap page
   while the row count stays: dropping either the page-count compare or
   the histogram check from [Cost_key.same_inputs] fails this test. *)
let test_serve_history_keys_fresh () =
  let window = 20 and history = 4 in
  let db = make_db () in
  let cfg =
    { (serve_config ~window ()) with Server.drift_threshold = -1.0; history }
  in
  let server = Server.create db cfg in
  let text i =
    let v k = (i * k) mod value_range in
    if i mod 10 = 3 then Printf.sprintf "UPDATE t SET b = %d WHERE a = %d" (v 13) (v 7)
    else if i mod 10 = 7 then Printf.sprintf "UPDATE t SET a = %d WHERE c = %d" (i mod 50) (v 11)
    else if i mod 100 = 12 then
      Printf.sprintf "INSERT INTO t VALUES (%d, %d, %d, %d)" (v 3) (v 5) (v 7) (v 9)
    else if i mod 100 = 81 then Printf.sprintf "DELETE FROM t WHERE d = %d" (v 17)
    else
      match i mod 4 with
      | 0 -> Printf.sprintf "SELECT * FROM t WHERE a = %d" (v 37)
      | 1 -> Printf.sprintf "SELECT a, b FROM t WHERE a < %d AND b > %d" (v 29) (v 31)
      | 2 -> Printf.sprintf "SELECT a, COUNT(*) FROM t WHERE a = %d GROUP BY a" (v 19)
      | _ -> Printf.sprintf "SELECT * FROM t WHERE c BETWEEN %d AND %d" (v 23) (v 23 + 40)
  in
  let fed = ref [] and closed = ref [] in
  for i = 0 to (20 * window) - 1 do
    let sql = text i in
    fed := Parser.parse_exn sql :: !fed;
    match Server.feed_sql server sql with
    | Error e -> Alcotest.failf "rejected %S: %s" sql e
    | Ok None -> ()
    | Ok (Some report) ->
        closed := Array.of_list (List.rev !fed) :: !closed;
        fed := [];
        let windows = List.rev (List.filteri (fun i _ -> i < history) !closed) in
        let stats = Database.table_stats db "t" in
        let fresh =
          Array.map (Cddpd_engine.Cost_key.statement stats) (Array.concat windows)
        in
        Alcotest.(check (option (array string)))
          (Printf.sprintf "window %d: keys = fresh keys" report.Server.index)
          (Some fresh)
          (Option.map
             (Array.map (fun (id : Cddpd_engine.Cost_key.id) -> id.Cddpd_engine.Cost_key.key))
             (Server.history_keys server))
  done;
  Alcotest.(check int) "every window re-optimized" 20
    (Server.finish server).Server.reoptimizations

let test_serve_validates_config () =
  let db = make_db () in
  Alcotest.check_raises "window"
    (Invalid_argument "Server.create: window must be positive") (fun () ->
      ignore (Server.create db { (serve_config ()) with Server.window = 0 }));
  Alcotest.check_raises "table"
    (Invalid_argument "Server.create: unknown table missing") (fun () ->
      ignore (Server.create db { (serve_config ()) with Server.table = "missing" }))

(* The memo-free reference twin of [Server.feed_sql]: parse the text from
   scratch, then [Server.feed], which keeps no statement cache and passes
   no plan-memo key. *)
let feed_reference server sql = Result.bind (Parser.parse sql) (Server.feed server)

(* One statement of a random stream: a shape and two literals, each drawn
   from a small pool (so texts repeat) or from the whole domain (fresh). *)
let stream_text (shape, v, w) =
  match shape with
  | 0 -> Printf.sprintf "SELECT * FROM t WHERE a = %d" v
  | 1 -> Printf.sprintf "SELECT * FROM t WHERE c = %d" v
  | 2 -> Printf.sprintf "SELECT a, b FROM t WHERE b < %d AND d > %d" v w
  | 3 -> Printf.sprintf "SELECT b, COUNT(*) FROM t WHERE a = %d GROUP BY b" v
  | 4 -> "SELECT d, SUM(c) FROM t GROUP BY d"
  | 5 -> Printf.sprintf "INSERT INTO t VALUES (%d, %d, %d, %d)" v w (v mod 7) (w mod 11)
  | 6 -> Printf.sprintf "UPDATE t SET d = %d WHERE a = %d" w v
  | 7 -> Printf.sprintf "DELETE FROM t WHERE b = %d" v
  | 8 -> Printf.sprintf "SELECT * FROM t WHERE nosuch = %d" v
  | 9 -> Printf.sprintf "SELECT * FROM nosuch WHERE a = %d" v
  | 10 -> "SELECT * FROM t WHERE a = 'x'"
  | _ -> Printf.sprintf "SELEC * FROM t WHERE a = %d" v

(* Reads dominate, as on a served stream; writes and rejected statements
   are rarer but present in most streams. *)
let stream_shape =
  QCheck.Gen.(
    frequency
      [ (6, int_range 0 4); (2, int_range 5 7); (1, int_range 8 11) ])

let stream_literal =
  QCheck.Gen.(oneof [ int_range 1 6; int_range 1 value_range ])

type stream = {
  s_window : int;
  s_regime : Server.regime;
  s_texts : string array;
}

let random_stream =
  let gen =
    QCheck.Gen.(
      int_range 5 50 >>= fun s_window ->
      oneofl [ Server.Continuous; Server.Reactive ] >>= fun s_regime ->
      int_range (3 * s_window) (6 * s_window) >>= fun n ->
      array_repeat n (triple stream_shape stream_literal stream_literal) >|= fun specs ->
      { s_window; s_regime; s_texts = Array.map stream_text specs })
  in
  QCheck.make
    ~print:(fun s ->
      Printf.sprintf "window %d, %s:\n%s" s.s_window
        (Server.regime_to_string s.s_regime)
        (String.concat "\n" (Array.to_list s.s_texts)))
    gen

(* The ingest path (template cache, plan memo, feed-time cost keys,
   prepared statements) is a pure speedup: every statement of a random
   stream gets the same verdict and the same window report as on the
   memo-free reference, the final reports are bit-identical, and the
   reference never touched the plan memo. *)
let feed_sql_equals_feed_prop =
  QCheck.Test.make ~name:"feed_sql = feed (random streams)" ~count:20 random_stream
    (fun s ->
      let cfg = serve_config ~regime:s.s_regime ~window:s.s_window () in
      let fast = Server.create (make_db ()) cfg in
      let reference_db = make_db () in
      let reference = Server.create reference_db cfg in
      let verdict r = Result.map (Option.map window_fingerprint) r in
      Array.iter
        (fun sql ->
          let f = verdict (Server.feed_sql fast sql) in
          let r = verdict (feed_reference reference sql) in
          if f <> r then
            QCheck.Test.fail_reportf "%S: feed_sql %s, feed %s" sql
              (match f with Ok _ -> "Ok" | Error e -> "Error " ^ e)
              (match r with Ok _ -> "Ok" | Error e -> "Error " ^ e))
        s.s_texts;
      let plan = Database.plan_cache_stats reference_db in
      String.equal
        (report_fingerprint (Server.finish fast))
        (report_fingerprint (Server.finish reference))
      && plan.Cddpd_engine.Plan_cache.hits = 0
      && plan.Cddpd_engine.Plan_cache.misses = 0)

(* A text keeps a prepared statement from its second execution on: one
   fed once leaves its entry's [prepared] empty, one fed twice or more
   holds a handle.  The stream drifts, so handles meet deployments and
   DML between their runs, and the report must equal the memo-free
   reference's, which runs every statement on a transient handle. *)
let test_serve_prepared_on_second_feed () =
  let window = 50 in
  let texts =
    let phase_texts column n =
      Array.init n (fun i ->
          match i mod 10 with
          | 0 ->
              Printf.sprintf "SELECT * FROM t WHERE %s = %d AND b >= %d" column
                (1 + ((i * 37) mod value_range)) (i mod 7)
          | 3 ->
              Printf.sprintf "SELECT %s, COUNT(*) FROM t WHERE %s = %d GROUP BY %s" column column
                (i mod 3) column
          | 6 -> Printf.sprintf "UPDATE t SET d = %d WHERE %s = %d" (i mod 4) column (1 + (i mod 5))
          | 8 ->
              Printf.sprintf "INSERT INTO t VALUES (%d, %d, %d, %d)"
                (1 + (i mod value_range)) (i mod value_range) (i mod 7) (i mod 11)
          | _ -> Printf.sprintf "SELECT a, %s FROM t WHERE %s = %d" column column (1 + (i mod 6)))
    in
    Array.concat
      [ phase_texts "a" (3 * window); phase_texts "c" window; phase_texts "a" (2 * window) ]
  in
  let run feed =
    let server = Server.create (make_db ()) (serve_config ~window ()) in
    Array.iter
      (fun sql ->
        match feed server sql with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "rejected %S: %s" sql e)
      texts;
    (Server.finish server, server)
  in
  let cached, server = run Server.feed_sql in
  let reference, _ = run feed_reference in
  Alcotest.(check string) "reports bit-identical" (report_fingerprint reference)
    (report_fingerprint cached);
  let cache = Server.statement_cache server in
  let seen = Hashtbl.create 64 in
  Array.iter
    (fun sql -> Hashtbl.replace seen sql (1 + Option.value ~default:0 (Hashtbl.find_opt seen sql)))
    texts;
  let once = ref 0 and repeated = ref 0 in
  Hashtbl.iter
    (fun sql count ->
      match Cddpd_sql.Template.find_exact cache sql with
      | None -> Alcotest.failf "%S not cached" sql
      | Some entry -> (
          match (count, entry.Cddpd_sql.Template.prepared) with
          | 1, None -> incr once
          | 1, Some _ -> Alcotest.failf "%S was fed once but keeps a handle" sql
          | _, Some _ -> incr repeated
          | _, None -> Alcotest.failf "%S was fed %d times but keeps no handle" sql count))
    seen;
  Alcotest.(check bool) "texts seen once and texts repeated" true (!once > 0 && !repeated > 0)

(* A statement that parses but fails the schema check is rejected like a
   lexical error: [Error], nothing executed or buffered, and the loop
   keeps serving.  Repeating the text must be rejected again, on the
   ingest path and on the reference path alike. *)
let test_serve_skips_invalid_statements () =
  let invalid =
    [
      ("unknown column", "SELECT * FROM t WHERE nosuch = 3");
      ("unknown table", "SELECT * FROM nosuch WHERE a = 3");
      ("literal type mismatch", "SELECT * FROM t WHERE a = 'x'");
    ]
  in
  List.iter
    (fun (path, feed) ->
      let server = Server.create (make_db ()) (serve_config ~window:5 ()) in
      let served () = (Server.finish server).Server.statements in
      List.iteri
        (fun i (what, sql) ->
          let label = Printf.sprintf "%s (%s)" what path in
          for _ = 1 to 2 do
            (match feed server sql with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "%s: accepted %S" label sql);
            Alcotest.(check int) (label ^ ": nothing served") i (served ())
          done;
          match feed server (Printf.sprintf "SELECT * FROM t WHERE a = %d" (i + 1)) with
          | Ok _ -> Alcotest.(check int) (label ^ ": next statement served") (i + 1) (served ())
          | Error e -> Alcotest.failf "%s: valid statement rejected: %s" label e)
        invalid)
    [ ("feed_sql", Server.feed_sql); ("feed", feed_reference) ]

(* [Server.feed] skips an AST the schema rejects instead of raising:
   [Error], and no statement is counted, executed or buffered; [run]
   skips it the same way. *)
let test_serve_feed_rejects_unknown_column () =
  let bad = Parser.parse_exn "SELECT * FROM t WHERE nosuch = 3" in
  let server = Server.create (make_db ()) (serve_config ~window:5 ()) in
  (match Server.feed server bad with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "feed accepted an unknown column");
  let report = Server.finish server in
  Alcotest.(check int) "no statement counted" 0 report.Server.statements;
  Alcotest.(check int) "nothing buffered" 0 report.Server.residual_statements;
  Alcotest.(check int) "nothing executed" 0 report.Server.exec_logical_io;
  let report =
    serve_all (make_db ()) (serve_config ~window:5 ()) (Array.append [| bad |] (phase "a" 7))
  in
  Alcotest.(check int) "run skips it" 7 report.Server.statements;
  Alcotest.(check int) "one window closed" 1 (Array.length report.Server.windows)

(* -- Reopt: incremental re-optimization ------------------------------------ *)

module Advisor = Cddpd_core.Advisor
module Optimizer = Cddpd_core.Optimizer
module Solution = Cddpd_core.Solution
module Reopt = Cddpd_core.Reopt
module Cost_key = Cddpd_engine.Cost_key
module Compress = Cddpd_workload.Compress

(* Fixed per-column statement pools (the prepared-statement shape): two
   windows of the same phase carry the same cost-identity key set, so the
   reuse path has real matches to find — while any two different phases
   share nothing. *)
let pool_size = 10

let pooled_phase =
  let pool column =
    Array.init pool_size (fun i ->
        Parser.parse_exn
          (Printf.sprintf "SELECT * FROM t WHERE %s = %d" column
             (1 + ((i * 41) mod value_range))))
  in
  let pools = List.map (fun c -> (c, pool c)) [ "a"; "b"; "c"; "d" ] in
  fun column n ->
    let pool = List.assoc column pools in
    Array.init n (fun i -> pool.(i mod pool_size))

(* The serve loop's request shape. *)
let reopt_request steps = Advisor.default_request ~steps ~table:"t"

let float_bits_equal x y =
  Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let matrix_bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun r1 r2 ->
         Array.length r1 = Array.length r2
         && Array.for_all2 float_bits_equal r1 r2)
       a b

let all_methods =
  [ Solution.Unconstrained; Solution.Kaware; Solution.Greedy_seq;
    Solution.Merging; Solution.Ranking; Solution.Hybrid ]

let all_ks = [ None; Some 1; Some 2; Some 3 ]

(* Hex-printed cost plus the path: equal signatures iff the solver
   behaved bit-identically (same budgets on both arms, so Ranking
   give-ups are deterministic too). *)
let signature_of = function
  | Ok s ->
      Printf.sprintf "ok %h %d [%s]" s.Solution.cost s.Solution.changes
        (String.concat ";"
           (Array.to_list (Array.map string_of_int s.Solution.path)))
  | Error Optimizer.Infeasible -> "infeasible"
  | Error (Optimizer.Ranking_gave_up _) -> "gave up"

let cold_signature problem method_name k =
  match
    Optimizer.solve problem ~method_name ?k ~max_paths:20_000 ~max_queue:65_536
      ()
  with
  | r -> signature_of r
  | exception Invalid_argument _ -> "k required"

let warm_signature session problem method_name k =
  match
    Reopt.solve session problem ~method_name ?k ~max_paths:20_000
      ~max_queue:65_536
  with
  | r -> signature_of r
  | exception Invalid_argument _ -> "k required"

(* One shared database for the property: traces vary per iteration, the
   statistics do not (the analyze test below uses its own). *)
let reopt_db = lazy (make_db ())

let random_phase_trace =
  let gen =
    QCheck.Gen.(
      int_range 3 6 >>= fun n ->
      list_repeat n (oneofl [ "a"; "b"; "c"; "d" ]))
  in
  QCheck.make ~print:(String.concat "") gen

(* The tentpole's contract, end to end: stream a random drift trace
   through one Reopt session the way the serve loop does (problem over
   the last <= 3 windows at every step, statement keys precomputed on
   alternate steps), and at every step the incremental problem must be
   bit-identical to a from-scratch build and every solver must return a
   bit-identical solution, warm-started or not. *)
let reopt_bit_identity_prop =
  QCheck.Test.make
    ~name:"incremental reopt = from-scratch over drift traces (all solvers)"
    ~count:6 random_phase_trace (fun phases ->
      let db = Lazy.force reopt_db in
      let stats = Database.table_stats db "t" in
      let session = Reopt.create db in
      let history = ref [] in
      List.for_all
        (fun (step, column) ->
          history := pooled_phase column 30 :: !history;
          let recent = List.filteri (fun i _ -> i < 3) !history in
          let steps = Array.of_list (List.rev recent) in
          let request = reopt_request steps in
          let statement_keys =
            if step mod 2 = 0 then
              Some
                (Array.map
                   (fun s -> Cost_key.id (Cost_key.statement stats s))
                   (Array.concat (Array.to_list steps)))
            else None
          in
          let incr = Reopt.build_problem ?statement_keys session request in
          let fresh = Advisor.build_problem db request in
          matrix_bits_equal incr.Problem.exec fresh.Problem.exec
          && matrix_bits_equal incr.Problem.trans fresh.Problem.trans
          && List.for_all
               (fun method_name ->
                 List.for_all
                   (fun k ->
                     String.equal
                       (warm_signature session incr method_name k)
                       (cold_signature fresh method_name k))
                   all_ks)
               all_methods)
        (List.mapi (fun i c -> (i, c)) phases))

let reuse_tallies session = (Reopt.stats session).Reopt.reuse

type reuse_delta = {
  d_exec_reused : int;
  d_recosted : int;
  d_hits : int;
}

(* Build through [session], cross-check bit-identity against a
   from-scratch build, and hand the caller the reuse-tally deltas. *)
let checked_build name session db request =
  let before = reuse_tallies session in
  let hits () = (Reopt.stats session).Reopt.cache.Cddpd_engine.Cost_cache.hits in
  let hits_before = hits () in
  let incr = Reopt.build_problem session request in
  let fresh = Advisor.build_problem db request in
  Alcotest.(check bool)
    (name ^ ": exec bit-identical") true
    (matrix_bits_equal incr.Problem.exec fresh.Problem.exec);
  Alcotest.(check bool)
    (name ^ ": trans bit-identical") true
    (matrix_bits_equal incr.Problem.trans fresh.Problem.trans);
  let after = reuse_tallies session in
  {
    d_exec_reused =
      after.Problem.Reuse.exec_columns_reused
      - before.Problem.Reuse.exec_columns_reused;
    d_recosted =
      after.Problem.Reuse.clusters_recosted
      - before.Problem.Reuse.clusters_recosted;
    d_hits = hits () - hits_before;
  }

let cluster_count db stmts =
  let stats = Database.table_stats db "t" in
  let keys = Array.map (fun s -> Cost_key.statement stats s) stmts in
  Array.length (Compress.cluster_keys keys).Compress.representatives

(* Candidate/cluster-set diffing across consecutive builds: stable
   workload copies everything, added phases recost exactly the new
   clusters, dropped phases recost nothing (every surviving cluster was
   already priced). *)
let test_reopt_diff_stable_add_drop () =
  let db = make_db () in
  let session = Reopt.create db in
  let wa = pooled_phase "a" 40 and wb = pooled_phase "b" 40 in
  let ca = cluster_count db wa in
  let cab = cluster_count db (Array.append wa wb) in
  let d = checked_build "first build" session db (reopt_request [| wa |]) in
  Alcotest.(check int) "first build recosts every cluster" ca d.d_recosted;
  Alcotest.(check int) "nothing to reuse yet" 0 d.d_exec_reused;
  let d = checked_build "stable rebuild" session db (reopt_request [| wa |]) in
  Alcotest.(check int) "stable rebuild recosts nothing" 0 d.d_recosted;
  Alcotest.(check bool) "exec columns copied" true (d.d_exec_reused > 0);
  let d =
    checked_build "added phase" session db (reopt_request [| wa; wb |])
  in
  Alcotest.(check int) "only the new clusters recosted" (cab - ca) d.d_recosted;
  Alcotest.(check int)
    "no whole column survives a cluster-set change" 0 d.d_exec_reused;
  let d = checked_build "dropped phase" session db (reopt_request [| wb |]) in
  Alcotest.(check int) "dropped phase recosts nothing" 0 d.d_recosted;
  Alcotest.(check bool)
    "surviving columns copied" true (d.d_exec_reused > 0)

(* Carried state survives a statistics change: an UPDATE on [a] and an
   [analyze] move [a]'s histogram but not the row count, so the clusters
   on [b] keep their keys and their rows, while the rebuild still equals
   a from-scratch build over the new statistics. *)
let test_reopt_rows_reused_across_analyze () =
  let db = make_db () in
  let session = Reopt.create db in
  let wa = pooled_phase "a" 40 and wb = pooled_phase "b" 40 in
  let request = reopt_request [| wa; wb |] in
  ignore (Reopt.build_problem session request);
  ignore (Database.execute_sql db "UPDATE t SET a = 1 WHERE a = 2");
  Database.analyze db;
  let d = checked_build "post-analyze build" session db request in
  Alcotest.(check bool) "atoms read across the analyze" true (d.d_hits > 0);
  Alcotest.(check bool) "not every cluster recosted" true
    (d.d_recosted < cluster_count db (Array.append wa wb))

(* End to end through the server: a whole serve run with the persistent
   session must be indistinguishable from one that rebuilds from scratch
   at every re-optimization — while actually reusing state. *)
let test_serve_reuse_bit_identical () =
  let window = 50 in
  let trace = drifting_trace ~window in
  let run reuse =
    serve_all (make_db ())
      { (serve_config ~window ()) with Server.reopt_reuse = reuse }
      trace
  in
  let with_reuse = run true and from_scratch = run false in
  Alcotest.(check string)
    "reuse on = reuse off" (report_fingerprint from_scratch)
    (report_fingerprint with_reuse);
  Alcotest.(check bool) "the session actually reused state" true
    (with_reuse.Server.reopt.Reopt.cache.Cddpd_engine.Cost_cache.hits > 0);
  Alcotest.(check int) "from-scratch arm carries no reuse state" 0
    from_scratch.Server.reopt.Reopt.reuse.Problem.Reuse.builds

let () =
  Alcotest.run "serve"
    [
      ( "drift",
        [
          Alcotest.test_case "identical windows" `Quick test_drift_identical_windows;
          Alcotest.test_case "disjoint windows" `Quick test_drift_disjoint_windows;
          Alcotest.test_case "mixture" `Quick test_drift_mixture_is_between;
          Alcotest.test_case "empty profile" `Quick test_drift_empty_profile;
        ] );
      ( "guard",
        [
          Alcotest.test_case "no change" `Quick test_guard_no_change;
          Alcotest.test_case "accept" `Quick test_guard_accept;
          Alcotest.test_case "reject short horizon" `Quick test_guard_reject_short_horizon;
          Alcotest.test_case "validation" `Quick test_guard_validates;
        ] );
      ( "server",
        [
          Alcotest.test_case "windowing" `Quick test_serve_windowing;
          Alcotest.test_case "continuous deploys on drift" `Quick
            test_serve_continuous_deploys_on_drift;
          Alcotest.test_case "static never changes" `Quick
            test_serve_static_never_changes;
          Alcotest.test_case "regret guard rejects" `Quick
            test_serve_regret_guard_rejects;
          Alcotest.test_case "rollback on regression" `Quick
            test_serve_rollback_on_regression;
          Alcotest.test_case "probation composes the window's clusters" `Quick
            test_serve_probation_composes_clusters;
          Alcotest.test_case "reactive is unguarded" `Quick
            test_serve_reactive_unguarded;
          Alcotest.test_case "non-positive threshold" `Quick
            test_serve_reopt_every_window_when_threshold_nonpositive;
          Alcotest.test_case "history keys = fresh keys over DML" `Quick
            test_serve_history_keys_fresh;
          Alcotest.test_case "config validation" `Quick test_serve_validates_config;
          Alcotest.test_case "invalid statements are skipped" `Quick
            test_serve_skips_invalid_statements;
          Alcotest.test_case "feed skips an unknown column" `Quick
            test_serve_feed_rejects_unknown_column;
          QCheck_alcotest.to_alcotest feed_sql_equals_feed_prop;
          Alcotest.test_case "prepared from the second feed" `Quick
            test_serve_prepared_on_second_feed;
        ] );
      ( "reopt",
        [
          QCheck_alcotest.to_alcotest reopt_bit_identity_prop;
          Alcotest.test_case "diffing: stable, add, drop" `Quick
            test_reopt_diff_stable_add_drop;
          Alcotest.test_case "rows reused across analyze" `Quick
            test_reopt_rows_reused_across_analyze;
          Alcotest.test_case "serve run bit-identical under reuse" `Quick
            test_serve_reuse_bit_identical;
        ] );
    ]
