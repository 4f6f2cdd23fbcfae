module Design = Cddpd_catalog.Design
module Solution = Cddpd_core.Solution
module Optimizer = Cddpd_core.Optimizer
module Workloads = Cddpd_workload.Workloads
module Text_table = Cddpd_util.Text_table

type row = {
  query_range : string;
  w1_mix : string;
  design_unconstrained : string;
  design_k2 : string;
  w2_mix : string;
  w3_mix : string;
}

type result = {
  rows : row list;
  unconstrained : Solution.t;
  constrained : Solution.t;
  schedule_unconstrained : Design.t array;
  schedule_k2 : Design.t array;
}

let solve_exn problem ~method_name ?k () =
  match Optimizer.solve problem ~method_name ?k () with
  | Ok solution -> solution
  | Error Optimizer.Infeasible -> failwith "Table2: infeasible"
  | Error (Optimizer.Ranking_gave_up _) -> failwith "Table2: ranking gave up"

let assemble (session : Session.t) unconstrained constrained =
  let problem = session.Session.problem_w1 in
  let schedule_unconstrained = Solution.schedule problem unconstrained in
  let schedule_k2 = Solution.schedule problem constrained in
  let per_segment =
    int_of_float
      (Float.round (500. *. session.Session.config.Setup.scale))
  in
  let n = Array.length schedule_unconstrained in
  let rows =
    List.init n (fun s ->
        {
          query_range =
            Printf.sprintf "%d-%d" ((s * per_segment) + 1) ((s + 1) * per_segment);
          w1_mix = String.make 1 Workloads.letters_w1.[s];
          design_unconstrained = Design.name schedule_unconstrained.(s);
          design_k2 = Design.name schedule_k2.(s);
          w2_mix = String.make 1 Workloads.letters_w2.[s];
          w3_mix = String.make 1 Workloads.letters_w3.[s];
        })
  in
  { rows; unconstrained; constrained; schedule_unconstrained; schedule_k2 }

let run ?cell_jobs (session : Session.t) =
  let problem = session.Session.problem_w1 in
  (* Force the memoized sequence graph on the main domain so solver cells
     share it read-only (Lazy.force is not safe to race). *)
  ignore (Cddpd_core.Problem.to_graph problem);
  let solutions =
    Runner.run ?cell_jobs ~seed:session.Session.config.Setup.seed
      [
        Runner.cell "unconstrained" (fun _ctx ->
            solve_exn problem ~method_name:Solution.Unconstrained ());
        Runner.cell "kaware/k2" (fun _ctx ->
            solve_exn problem ~method_name:Solution.Kaware
              ~k:Workloads.major_shift_count ());
      ]
  in
  match solutions with
  | [ unconstrained; constrained ] -> assemble session unconstrained constrained
  | _ -> failwith "Table2: unexpected cell count"

let print result =
  print_endline "Table 2: Dynamic Workloads and Physical Designs (designs from W1)";
  let table =
    Text_table.create
      [
        ("query number", Text_table.Left);
        ("W1", Text_table.Left);
        ("design k=inf", Text_table.Left);
        ("design k=2", Text_table.Left);
        ("W2", Text_table.Left);
        ("W3", Text_table.Left);
      ]
  in
  List.iter
    (fun row ->
      Text_table.add_row table
        [
          row.query_range;
          row.w1_mix;
          row.design_unconstrained;
          row.design_k2;
          row.w2_mix;
          row.w3_mix;
        ])
    result.rows;
  Text_table.print table;
  Format.printf "unconstrained: %a@." Solution.pp result.unconstrained;
  Format.printf "constrained:   %a@." Solution.pp result.constrained
