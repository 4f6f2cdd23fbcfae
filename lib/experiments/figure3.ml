module Solution = Cddpd_core.Solution
module Simulator = Cddpd_core.Simulator
module Text_table = Cddpd_util.Text_table

type measurement = {
  workload : string;
  unconstrained_io : int;
  constrained_io : int;
  relative_unconstrained : float;
  relative_constrained : float;
}

type result = { measurements : measurement list; baseline_io : int }

let workloads (session : Session.t) =
  [
    ("W1", session.Session.steps_w1);
    ("W2", session.Session.steps_w2);
    ("W3", session.Session.steps_w3);
  ]

let assemble raw =
  let baseline_io =
    match raw with
    | ("W1", io, _) :: _ -> io
    | _ -> failwith "Figure3: W1 missing"
  in
  let measurements =
    List.map
      (fun (workload, unconstrained_io, constrained_io) ->
        {
          workload;
          unconstrained_io;
          constrained_io;
          relative_unconstrained =
            float_of_int unconstrained_io /. float_of_int baseline_io;
          relative_constrained = float_of_int constrained_io /. float_of_int baseline_io;
        })
      raw
  in
  { measurements; baseline_io }

(* A replay cell builds its own database from the session's config (a
   byte-identical replica of the session's — same data seed) and replays
   one (workload, schedule) pair on it from the paper's empty initial
   configuration.  Logical I/O counts one access per fetch whether it hits
   or misses, so a pool's residency cannot change the reported numbers. *)
let replay config steps schedule =
  let db = Setup.make_database config in
  let report = Simulator.run db ~steps ~schedule in
  report.Simulator.total_logical_io

let run ?cell_jobs (session : Session.t) =
  (* The two design schedules are a shared prerequisite of every replay
     cell; compute them once first. *)
  let table2 = Table2.run ?cell_jobs session in
  let schedule_unconstrained = table2.Table2.schedule_unconstrained in
  let schedule_k2 = table2.Table2.schedule_k2 in
  let config = session.Session.config in
  let cells =
    List.concat_map
      (fun (name, steps) ->
        [
          Runner.cell (name ^ "/unconstrained") (fun _ctx ->
              replay config steps schedule_unconstrained);
          Runner.cell (name ^ "/k2") (fun _ctx -> replay config steps schedule_k2);
        ])
      (workloads session)
  in
  let ios = Runner.run ?cell_jobs ~seed:config.Setup.seed cells in
  let raw =
    match ios with
    | [ w1u; w1c; w2u; w2c; w3u; w3c ] ->
        [ ("W1", w1u, w1c); ("W2", w2u, w2c); ("W3", w3u, w3c) ]
    | _ -> failwith "Figure3: unexpected cell count"
  in
  assemble raw

let print result =
  print_endline
    "Figure 3: Execution cost relative to W1 under the unconstrained design";
  let table =
    Text_table.create
      [
        ("workload", Text_table.Left);
        ("unconstrained design", Text_table.Right);
        ("constrained design (k=2)", Text_table.Right);
        ("page accesses (unc)", Text_table.Right);
        ("page accesses (k=2)", Text_table.Right);
      ]
  in
  List.iter
    (fun m ->
      Text_table.add_row table
        [
          m.workload;
          Printf.sprintf "%.0f%%" (m.relative_unconstrained *. 100.);
          Printf.sprintf "%.0f%%" (m.relative_constrained *. 100.);
          string_of_int m.unconstrained_io;
          string_of_int m.constrained_io;
        ])
    result.measurements;
  Text_table.print table
