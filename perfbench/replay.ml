(* One replay of a workload trace through the serve loop, timed from the
   outside.  The timed path uses only Database.create/load/analyze/
   build_index, Server.default_config (window and jobs), Server.create/
   feed_sql/finish and the report's fields, so library changes behind
   those calls need no edit here. *)

module Database = Cddpd_engine.Database
module Server = Cddpd_serve.Server
module Design = Cddpd_catalog.Design

let now = Unix.gettimeofday

(* A fresh database with the workload's data and initial design. *)
let database (w : Traffic.t) =
  let db = Database.create ~pool_capacity:w.Traffic.pool_capacity [ w.Traffic.schema ] in
  List.iter (Database.build_index db) w.Traffic.indexes;
  Database.load db ~table:"t" w.Traffic.rows;
  Database.analyze db;
  db

(* The database and a single-domain serve loop over it: the set-up the
   benchmark times as [setup_s]. *)
let setup (w : Traffic.t) =
  let t0 = now () in
  let db = database w in
  let config =
    { (Server.default_config ~table:"t") with Server.window = w.Traffic.window; jobs = Some 1 }
  in
  let server = Server.create db config in
  (server, now () -. t0)

(* The action classes whose window times differ by design: a window
   close that ran no re-optimization, one that re-optimized and kept the
   design, and one that migrated. *)
type mode = Quiet | Kept | Migrated

let mode_name = function Quiet -> "quiet" | Kept -> "kept" | Migrated -> "migrated"

let mode_of (w : Server.window_report) =
  match w.Server.action with
  | Server.No_action -> Quiet
  | Server.Held _ | Server.Rejected _ -> Kept
  | Server.Deployed _ | Server.Rolled_back _ -> Migrated

type outcome = {
  attempted : int;
  failed : int;
  first_error : string option;
  window_s : float array;  (** service time of each closed window *)
  tail_s : float;  (** from the last close through [finish] *)
  wall_s : float;  (** first feed through finish *)
  report : Server.report;
}

(* [on_feed] sees every call's duration and whether it closed a window;
   the untraced run passes nothing and reads the clock once per window. *)
let run ?on_feed server texts =
  let windows = ref [] in
  let attempted = ref 0 in
  let failed = ref 0 in
  let first_error = ref None in
  let fail message =
    incr failed;
    if !first_error = None then first_error := Some message
  in
  let t0 = now () in
  let last_close = ref t0 in
  Array.iter
    (fun text ->
      incr attempted;
      let before = match on_feed with Some _ -> now () | None -> 0.0 in
      match Server.feed_sql server text with
      | Ok None -> (
          match on_feed with Some f -> f ~closed:false (now () -. before) | None -> ())
      | Ok (Some _) ->
          let t = now () in
          windows := (t -. !last_close) :: !windows;
          last_close := t;
          (match on_feed with Some f -> f ~closed:true (t -. before) | None -> ())
      | Error message -> fail (Printf.sprintf "%S: %s" text message)
      | exception e -> fail (Printf.sprintf "%S: %s" text (Printexc.to_string e)))
    texts;
  let report = Server.finish server in
  let t1 = now () in
  {
    attempted = !attempted;
    failed = !failed;
    first_error = !first_error;
    window_s = Array.of_list (List.rev !windows);
    tail_s = t1 -. !last_close;
    wall_s = t1 -. t0;
    report;
  }

(* -- outcome digests and report invariants -------------------------------- *)

let action_digest = function
  | Server.No_action -> "none"
  | Server.Held _ -> "held"
  | Server.Deployed { design; build_io; _ } ->
      Printf.sprintf "deploy:%s:%d" (Design.name design) build_io
  | Server.Rejected { design; _ } -> "reject:" ^ Design.name design
  | Server.Rolled_back { restored; build_io; _ } ->
      Printf.sprintf "rollback:%s:%d" (Design.name restored) build_io

(* Everything the serve loop decided, bit-precise (%h keeps drift
   distances exact).  Equal digests mean equal outcomes. *)
let window_digest (w : Server.window_report) =
  Printf.sprintf "%d:%d:%s:%d:%s:%b:%s" w.Server.index w.Server.n_statements
    (Design.name w.Server.design) w.Server.exec_logical_io
    (match w.Server.drift with None -> "-" | Some d -> Printf.sprintf "%h" d)
    w.Server.drifted (action_digest w.Server.action)

let report_digest (r : Server.report) =
  String.concat "\n"
    (Printf.sprintf "%d:%d:%d:%d:%d:%d:%d:%d:%d:%s" r.Server.statements
       r.Server.residual_statements r.Server.drift_events r.Server.reoptimizations
       r.Server.deployments r.Server.rejections r.Server.rollbacks
       r.Server.exec_logical_io r.Server.trans_logical_io
       (Design.name r.Server.final_design)
    :: Array.to_list (Array.map window_digest r.Server.windows))

let window_io_sum (r : Server.report) =
  Array.fold_left
    (fun acc (w : Server.window_report) -> acc + w.Server.exec_logical_io)
    0 r.Server.windows

let build_io_sum (r : Server.report) =
  Array.fold_left
    (fun acc (w : Server.window_report) ->
      match w.Server.action with
      | Server.Deployed { build_io; _ } | Server.Rolled_back { build_io; _ } -> acc + build_io
      | Server.No_action | Server.Held _ | Server.Rejected _ -> acc)
    0 r.Server.windows

(* The invariants every replay's report must meet; the residual's own I/O
   is checked against an independent measurement by the probe pass. *)
let check_report ~window ~statements (r : Server.report) =
  let errors = ref [] in
  let expect ok message = if not ok then errors := message :: !errors in
  let windows = Array.length r.Server.windows in
  expect (r.Server.statements = statements)
    (Printf.sprintf "report counts %d statements, %d were fed" r.Server.statements statements);
  expect (windows = statements / window)
    (Printf.sprintf "%d windows closed, expected %d" windows (statements / window));
  expect
    (r.Server.residual_statements = statements - (windows * window))
    (Printf.sprintf "residual %d, expected %d" r.Server.residual_statements
       (statements - (windows * window)));
  expect
    (window_io_sum r <= r.Server.exec_logical_io)
    (Printf.sprintf "window exec I/O %d exceeds the report's %d" (window_io_sum r)
       r.Server.exec_logical_io);
  expect
    (build_io_sum r = r.Server.trans_logical_io)
    (Printf.sprintf "deployment and rollback build I/O %d, report TRANS I/O %d"
       (build_io_sum r) r.Server.trans_logical_io);
  Array.iteri
    (fun i (w : Server.window_report) -> expect (w.Server.index = i) (Printf.sprintf "window %d reports index %d" i w.Server.index))
    r.Server.windows;
  List.rev !errors
