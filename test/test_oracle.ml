(* Problem.build sessions against the naive oracle (naive.ml).

   Every optimisation of the EXEC and TRANS fills — workload compression,
   relevant-column sharing, bound statements, the reuse summary carried
   between the builds of a session, precomputed statement keys — must
   leave the matrices equal, bit for bit, to the naive definition.

   The property drives one Problem.Reuse session over several builds of
   random workloads (reads, aggregates and DML) and random spaces of
   index and view configurations, loading rows between builds so that
   the statistics change under the session. *)

module Tuple = Cddpd_storage.Tuple
module Schema = Cddpd_catalog.Schema
module Index_def = Cddpd_catalog.Index_def
module View_def = Cddpd_catalog.View_def
module Structure = Cddpd_catalog.Structure
module Design = Cddpd_catalog.Design
module Ast = Cddpd_sql.Ast
module Cost_model = Cddpd_engine.Cost_model
module Cost_key = Cddpd_engine.Cost_key
module Database = Cddpd_engine.Database
module Config_space = Cddpd_core.Config_space
module Problem = Cddpd_core.Problem

let params = Cost_model.default_params

let columns = [ "a"; "b"; "c"; "d" ]

let schema = Schema.table "t" (List.map (fun c -> (c, Schema.Int_type)) columns)

let value_range = 60

let candidates =
  let index cs = Structure.index (Index_def.make ~table:"t" ~columns:cs) in
  let view g = Structure.view (View_def.make ~table:"t" ~group_by:g) in
  [ index [ "a" ]; index [ "b" ]; index [ "c" ]; index [ "a"; "b" ]; index [ "c"; "d" ];
    view "a"; view "c" ]

(* -- generators ------------------------------------------------------------- *)

let gen_value = QCheck.Gen.int_bound (value_range - 1)

let gen_predicate =
  QCheck.Gen.(
    oneof
      [
        map3
          (fun column op v -> Ast.Cmp { column; op; value = Tuple.Int v })
          (oneofl columns)
          (oneofl [ Ast.Eq; Ast.Eq; Ast.Lt; Ast.Ge ])
          gen_value;
        map3
          (fun column lo hi ->
            Ast.Between { column; low = Tuple.Int (min lo hi); high = Tuple.Int (max lo hi) })
          (oneofl columns) gen_value gen_value;
      ])

let gen_statement =
  QCheck.Gen.(
    let where = list_size (int_bound 3) gen_predicate in
    let projection =
      oneof
        [ return Ast.Star; map (fun cs -> Ast.Columns cs) (list_size (int_range 1 2) (oneofl columns)) ]
    in
    frequency
      [
        (4, map2 (fun projection where -> Ast.Select { projection; table = "t"; where }) projection where);
        ( 2,
          map2
            (fun group_by where ->
              Ast.Select_agg { table = "t"; group_by; aggregate = Ast.Count_star; where })
            (oneofl [ "a"; "c" ])
            (map (List.filter (function Ast.Cmp { op = Ast.Eq; _ } -> true | _ -> false)) where) );
        (1, map (fun vs -> Ast.Insert { table = "t"; values = List.map (fun v -> Tuple.Int v) vs })
              (list_repeat 4 gen_value));
        (1, map (fun where -> Ast.Delete { table = "t"; where }) where);
        ( 1,
          map3
            (fun column v where ->
              Ast.Update { table = "t"; assignments = [ (column, Tuple.Int v) ]; where })
            (oneofl columns) gen_value where );
      ])

(* One build: its steps (drawn from a statement pool shared by the whole
   session, so clusters recur between builds), the candidate subset its
   space enumerates, whether it hands the build precomputed statement
   keys, and the rows loaded before it (changing the statistics). *)
type build_spec = {
  steps : Ast.statement array array;
  picks : bool list;
  with_keys : bool;
  load : int array list;
}

let gen_session =
  QCheck.Gen.(
    list_size (int_range 4 12) gen_statement >>= fun pool ->
    let pool = Array.of_list pool in
    let gen_step =
      map Array.of_list (list_size (int_range 1 10) (map (fun i -> pool.(i)) (int_bound (Array.length pool - 1))))
    in
    let gen_build =
      map
        (fun (steps, picks, with_keys, load) ->
          { steps = Array.of_list steps; picks; with_keys; load })
        (quad
           (list_size (int_range 1 3) gen_step)
           (list_repeat (List.length candidates) bool)
           bool
           (oneof
              [
                return [];
                list_size (int_range 1 40)
                  (array_repeat 4 (int_bound (2 * value_range)));
              ]))
    in
    pair (int_range 1 2) (list_size (int_range 2 4) gen_build))

let print_session (jobs, builds) =
  Printf.sprintf "jobs %d\n%s" jobs
    (String.concat "\n"
       (List.mapi
          (fun i b ->
            Printf.sprintf "build %d (keys %b, %d rows loaded):\n%s" i b.with_keys
              (List.length b.load)
              (String.concat "\n"
                 (Array.to_list
                    (Array.map
                       (fun step ->
                         "  step: "
                         ^ String.concat "; "
                             (Array.to_list (Array.map Cddpd_sql.Printer.to_string step)))
                       b.steps))))
          builds))

(* -- sessions ------------------------------------------------------------------ *)

let make_db () =
  let db = Database.create ~pool_capacity:256 [ schema ] in
  let rng = Cddpd_util.Rng.create 5 in
  Database.load db ~table:"t"
    (Array.init 400 (fun _ ->
         Array.init 4 (fun _ -> Tuple.Int (Cddpd_util.Rng.int rng value_range))));
  db

(* Run one session; whether every build matched the oracle, and the
   session's reuse tallies. *)
let run_session (jobs, builds) =
  let db = make_db () in
  let stats_of table = Database.table_stats db table in
  let session = Problem.Reuse.create () in
  let ok =
    List.for_all
      (fun b ->
        if b.load <> [] then
          Database.load db ~table:"t"
            (Array.of_list (List.map (Array.map (fun v -> Tuple.Int v)) b.load));
        let picked = List.filteri (fun i _ -> List.nth b.picks i) candidates in
        let space =
          Config_space.enumerate ~candidates:picked ~max_structures:2 ~size_of:(fun _ -> 1) ()
        in
        let statement_keys =
          if b.with_keys then
            Some
              (Array.map
                 (fun s -> Cost_key.statement (stats_of "t") s)
                 (Array.concat (Array.to_list b.steps)))
          else None
        in
        let problem =
          Problem.build ~params ~stats_of ~steps:b.steps ~space ~initial:Design.empty ~jobs
            ~reuse:session ?statement_keys ()
        in
        Naive.matches params ~stats_of problem)
      builds
  in
  (ok, Problem.Reuse.tallies session)

let reuse_session_matches_oracle =
  QCheck.Test.make ~name:"reuse session builds = naive EXEC/TRANS oracle (bit-identical)"
    ~count:40
    (QCheck.make ~print:print_session gen_session)
    (fun session -> fst (run_session session))

(* The property is only as strong as the paths it reaches: over a fixed
   sample of sessions, builds must copy EXEC columns and TRANS entries
   from the previous build, recost new clusters, and drop a summary on a
   statistics change. *)
let test_oracle_reaches_reuse_paths () =
  let rand = Random.State.make [| 3 |] in
  let totals =
    List.init 40 (fun _ -> run_session (QCheck.Gen.generate1 ~rand gen_session))
  in
  Alcotest.(check bool) "all match the oracle" true (List.for_all fst totals);
  let sum f = List.fold_left (fun acc (_, t) -> acc + f t) 0 totals in
  List.iter
    (fun (name, f) -> Alcotest.(check bool) name true (sum f > 0))
    [
      ("exec columns reused", fun t -> t.Problem.Reuse.exec_columns_reused);
      ("clusters recosted", fun t -> t.Problem.Reuse.clusters_recosted);
      ("trans entries reused", fun t -> t.Problem.Reuse.trans_blocks_reused);
      ("statistics invalidations", fun t -> t.Problem.Reuse.stats_invalidations);
    ]

let () =
  Alcotest.run "oracle"
    [
      ( "problem_build",
        [
          QCheck_alcotest.to_alcotest reuse_session_matches_oracle;
          Alcotest.test_case "oracle sessions reach every reuse path" `Quick
            test_oracle_reaches_reuse_paths;
        ] );
    ]
