module Schema = Cddpd_catalog.Schema
module Index_def = Cddpd_catalog.Index_def
module Design = Cddpd_catalog.Design
module Database = Cddpd_engine.Database
module Data_gen = Cddpd_workload.Data_gen
module Spec = Cddpd_workload.Spec
module Config_space = Cddpd_core.Config_space
module Problem = Cddpd_core.Problem

type config = {
  rows : int;
  value_range : int;
  scale : float;
  seed : int;
  pool_capacity : int;
}

let default_config =
  {
    rows = 100_000;
    value_range = 20_000;
    scale = 1.0;
    seed = 20080407;
    pool_capacity = 16384;
  }

let test_config =
  {
    rows = 5_000;
    value_range = 1_000;
    scale = 0.04;
    seed = 20080407;
    pool_capacity = 1024;
  }

let table_name = "t"

let schema =
  Schema.table table_name
    [
      ("a", Schema.Int_type);
      ("b", Schema.Int_type);
      ("c", Schema.Int_type);
      ("d", Schema.Int_type);
    ]

let index columns = Index_def.make ~table:table_name ~columns

let paper_candidates =
  [
    index [ "a" ];
    index [ "b" ];
    index [ "c" ];
    index [ "d" ];
    index [ "a"; "b" ];
    index [ "c"; "d" ];
  ]

let paper_space = Config_space.single_index paper_candidates

let make_database config =
  let db = Database.create ~pool_capacity:config.pool_capacity [ schema ] in
  let rows =
    Data_gen.uniform_rows ~columns:4 ~rows:config.rows ~value_range:config.value_range
      ~seed:config.seed
  in
  Database.load db ~table:table_name rows;
  (* Resolve statistics now (load leaves them lazy) so replays measured
     against this database start from one resolved snapshot. *)
  Database.analyze db;
  db

let workload config name = Cddpd_workload.Workloads.by_name name ~scale:config.scale ()

let workload_steps config spec =
  Spec.generate spec ~table:table_name ~value_range:config.value_range
    ~seed:(config.seed + 1)

let build_problem db ~steps =
  Problem.build ~params:(Database.params db)
    ~stats_of:(fun table -> Database.table_stats db table)
    ~steps ~space:paper_space ~initial:Design.empty ~count_initial_change:false ()
