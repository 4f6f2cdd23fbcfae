module Database = Cddpd_engine.Database

type step_report = {
  step : int;
  design : Cddpd_catalog.Design.t;
  n_statements : int;
  exec_logical_io : int;
  trans_logical_io : int;
}

type report = {
  steps : step_report array;
  exec_logical_io : int;
  trans_logical_io : int;
  total_logical_io : int;
  rows_returned : int;
}

let run db ~steps ~schedule =
  if Array.length steps <> Array.length schedule then
    invalid_arg "Simulator.run: schedule length differs from step count";
  let rows_returned = ref 0 in
  (* Steps must run in order (design migrations are stateful), so no
     Array.mapi here. *)
  let run_step s step =
    let logical_before = Database.logical_io db in
    Database.migrate_to db schedule.(s);
    let logical_after_trans = Database.logical_io db in
    let exec_logical = ref 0 in
    Array.iter
      (fun statement ->
        let result = Database.execute db statement in
        rows_returned := !rows_returned + List.length result.Database.rows;
        exec_logical := !exec_logical + result.Database.logical_io)
      step;
    {
      step = s;
      design = schedule.(s);
      n_statements = Array.length step;
      exec_logical_io = !exec_logical;
      trans_logical_io = logical_after_trans - logical_before;
    }
  in
  let reports = ref [] in
  Array.iteri (fun s step -> reports := run_step s step :: !reports) steps;
  let reports = Array.of_list (List.rev !reports) in
  let sum f = Array.fold_left (fun acc r -> acc + f r) 0 reports in
  let exec_logical_io = sum (fun r -> r.exec_logical_io) in
  let trans_logical_io = sum (fun r -> r.trans_logical_io) in
  {
    steps = reports;
    exec_logical_io;
    trans_logical_io;
    total_logical_io = exec_logical_io + trans_logical_io;
    rows_returned = !rows_returned;
  }
