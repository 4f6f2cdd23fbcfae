(* Problem.build sessions against the naive oracle (naive.ml).

   Every optimisation of the EXEC and TRANS fills — workload compression,
   relevant-column sharing, bound statements, the reuse summary carried
   between the builds of a session, precomputed statement keys — must
   leave the matrices equal, bit for bit, to the naive definition.

   The property drives one Problem.Reuse session over several builds of
   random workloads (reads, aggregates and DML on two tables) and random
   spaces of index and view configurations of up to four structures,
   loading rows between builds so that the statistics change under the
   session.  With three or more structures added by one transition, the
   order TRANS sums their build costs in is observable. *)

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

let other = Schema.table "u" [ ("x", Schema.Int_type); ("y", Schema.Int_type) ]

let value_range = 60

let candidates =
  let index cs = Structure.index (Index_def.make ~table:"t" ~columns:cs) in
  let view g = Structure.view (View_def.make ~table:"t" ~group_by:g) in
  [ index [ "a" ]; index [ "b" ]; index [ "c" ]; index [ "a"; "b" ]; index [ "c"; "d" ];
    view "a"; view "c";
    Structure.index (Index_def.make ~table:"u" ~columns:[ "x" ]);
    Structure.view (View_def.make ~table:"u" ~group_by:"y") ]

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
          map2
            (fun x y ->
              let eq column v = [ Ast.Cmp { column; op = Ast.Eq; value = Tuple.Int v } ] in
              match x mod 3 with
              | 0 -> Ast.Select { projection = Ast.Columns [ "y" ]; table = "u"; where = eq "x" x }
              | 1 -> Ast.Select_agg { table = "u"; group_by = "y"; aggregate = Ast.Count_star; where = [] }
              | _ -> Ast.Delete { table = "u"; where = eq "y" y })
            gen_value gen_value );
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
  rotate : int;  (** candidate order is rotated by this much *)
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
        (fun ((steps, rotate), picks, with_keys, load) ->
          { steps = Array.of_list steps; picks; rotate; with_keys; load })
        (quad
           (pair (list_size (int_range 1 3) gen_step) (int_bound (List.length candidates - 1)))
           (list_repeat (List.length candidates) bool)
           bool
           (oneof
              [
                return [];
                list_size (int_range 1 40)
                  (array_repeat 4 (int_bound (2 * value_range)));
              ]))
    in
    list_size (int_range 2 4) gen_build)

let print_session builds =
  String.concat "\n"
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
       builds)

(* -- sessions ------------------------------------------------------------------ *)

let make_db () =
  let db = Database.create ~pool_capacity:256 [ schema; other ] in
  let rng = Cddpd_util.Rng.create 5 in
  let rows n width =
    Array.init n (fun _ -> Array.init width (fun _ -> Tuple.Int (Cddpd_util.Rng.int rng value_range)))
  in
  Database.load db ~table:"t" (rows 400 4);
  Database.load db ~table:"u" (rows 150 2);
  db

let rotate n xs =
  let n = if xs = [] then 0 else n mod List.length xs in
  List.filteri (fun i _ -> i >= n) xs @ List.filteri (fun i _ -> i < n) xs

let build_space picked =
  Config_space.enumerate ~candidates:picked ~max_structures:4 ~size_of:(fun _ -> 1) ()

(* Run one session; whether every build matched the oracle, the
   session's reuse tallies, and the atoms builds read from rows kept
   across a load. *)
let run_session builds =
  let db = make_db () in
  let stats_of table = Database.table_stats db table in
  let session = Problem.Reuse.create () in
  let hits () =
    (Cddpd_engine.Cost_cache.stats (Problem.Reuse.memo session)).Cddpd_engine.Cost_cache.hits
  in
  let hits_across_loads = ref 0 in
  let ok =
    List.for_all
      (fun b ->
        if b.load <> [] then
          Database.load db ~table:"t"
            (Array.of_list (List.map (Array.map (fun v -> Tuple.Int v)) b.load));
        let picked = rotate b.rotate (List.filteri (fun i _ -> List.nth b.picks i) candidates) in
        let space = build_space picked in
        let statement_keys =
          if b.with_keys then
            Some
              (Array.map
                 (fun s -> Cost_key.id (Cost_key.statement (stats_of (Ast.table_of s)) s))
                 (Array.concat (Array.to_list b.steps)))
          else None
        in
        let before = hits () in
        let problem =
          Problem.build ~params ~stats_of ~steps:b.steps ~space ~initial:Design.empty
            ~reuse:session ?statement_keys ()
        in
        if b.load <> [] then hits_across_loads := !hits_across_loads + hits () - before;
        Naive.matches params ~stats_of problem)
      builds
  in
  (ok, Problem.Reuse.tallies session, !hits_across_loads)

let reuse_session_matches_oracle =
  QCheck.Test.make ~name:"reuse session builds = naive EXEC/TRANS oracle (bit-identical)"
    ~count:40
    (QCheck.make ~print:print_session gen_session)
    (fun session ->
      let ok, _, _ = run_session session in
      ok)

(* The property is only as strong as the paths it reaches: over a fixed
   sample of sessions, builds must compose EXEC columns wholly from atoms
   of the previous build, recost new clusters, and read atoms from rows
   kept across a statistics change. *)
let test_oracle_reaches_reuse_paths () =
  let rand = Random.State.make [| 3 |] in
  let totals =
    List.init 40 (fun _ -> run_session (QCheck.Gen.generate1 ~rand gen_session))
  in
  Alcotest.(check bool) "all match the oracle" true (List.for_all (fun (ok, _, _) -> ok) totals);
  let sum f = List.fold_left (fun acc (_, t, across) -> acc + f t across) 0 totals in
  List.iter
    (fun (name, f) -> Alcotest.(check bool) name true (sum f > 0))
    [
      ("exec columns reused", fun t _ -> t.Problem.Reuse.exec_columns_reused);
      ("clusters recosted", fun t _ -> t.Problem.Reuse.clusters_recosted);
      ("atoms read across a load", fun _ across -> across);
    ]

(* -- drift-shaped sessions -------------------------------------------------- *)

module Candidates = Cddpd_core.Candidates
module Obs = Cddpd_obs

(* A phase's statements: point reads whose leading predicate column is the
   phase's column, plus an aggregate grouped by it and a DELETE on it. *)
let phase_statements column =
  let cmp c v = Ast.Cmp { column = c; op = Ast.Eq; value = Tuple.Int v } in
  Array.init 12 (fun i ->
      match i mod 6 with
      | 4 -> Ast.Select_agg { table = "t"; group_by = column; aggregate = Ast.Count_star; where = [ cmp column i ] }
      | 5 -> Ast.Delete { table = "t"; where = [ cmp column (i * 7) ] }
      | j ->
          Ast.Select
            {
              projection = Ast.Columns [ List.nth columns ((j + 1) mod 4) ];
              table = "t";
              where = cmp column (i * 3) :: (if j = 0 then [ cmp "b" 4 ] else []);
            })

(* The serve loop's shape: a sliding history over phases whose leading
   column rotates a -> b -> c -> d -> a, candidates derived from the
   history (so structures leave, come back, and change rank), and rows
   loaded mid-session.  Every build must equal the oracle.  The load
   changes the row count every statement key carries, so the build after
   it recosts each of its clusters: by key, with no fence. *)
let test_rotating_session_matches_oracle () =
  let db = make_db () in
  let stats_of table = Database.table_stats db table in
  let session = Problem.Reuse.create () in
  let recosted () = (Problem.Reuse.tallies session).Problem.Reuse.clusters_recosted in
  let history = ref [] in
  List.iteri
    (fun i column ->
      if i = 6 then
        Database.load db ~table:"t"
          (Array.init 30 (fun r -> Array.init 4 (fun c -> Tuple.Int ((r * 7) + c))));
      history := phase_statements column :: !history;
      let steps = Array.of_list (List.rev (List.filteri (fun i _ -> i < 3) !history)) in
      let picked =
        Candidates.structures_from_statements schema ~composite_pairs:1
          (Array.concat (Array.to_list steps))
      in
      let before = recosted () in
      let problem =
        Problem.build ~params ~stats_of ~steps ~space:(build_space picked) ~initial:Design.empty
          ~reuse:session ()
      in
      Alcotest.(check bool)
        (Printf.sprintf "build %d (phase %s) = oracle" i column)
        true
        (Naive.matches params ~stats_of problem);
      if i = 6 then
        let keys =
          Array.map
            (fun s -> Cost_key.statement (stats_of "t") s)
            (Array.concat (Array.to_list steps))
        in
        Alcotest.(check int) "the load recosts every cluster"
          (Cddpd_workload.Compress.n_clusters (Cddpd_workload.Compress.cluster_keys keys))
          (recosted () - before))
    [ "a"; "b"; "c"; "d"; "a"; "b"; "c"; "d"; "a" ]

(* A build whose clusters and structures all appeared in the previous
   build of its session composes every cell from stored atoms: it makes
   no what-if call at all. *)
let test_seen_build_costs_nothing () =
  let db = make_db () in
  let stats_of table = Database.table_stats db table in
  let session = Problem.Reuse.create () in
  let calls = Obs.Registry.counter "cost_model.calls" in
  let build steps picked =
    let before = Obs.Counter.value calls in
    let problem =
      Problem.build ~params ~stats_of ~steps ~space:(build_space picked) ~initial:Design.empty
        ~reuse:session ()
    in
    Alcotest.(check bool) "= oracle" true (Naive.matches params ~stats_of problem);
    Obs.Counter.value calls - before
  in
  let was_enabled = Obs.Registry.enabled () in
  Obs.Registry.enable ();
  Fun.protect ~finally:(fun () -> if not was_enabled then Obs.Registry.disable ()) @@ fun () ->
  let wa = phase_statements "a" and wb = phase_statements "b" in
  let first = build [| wa; wb |] candidates in
  Alcotest.(check bool) "the first build evaluates atoms" true (first > 0);
  (* Fewer steps, a sub-space in another order: every cluster and every
     structure is already known. *)
  Alcotest.(check int) "seen clusters and structures: no call" 0
    (build [| wb |] (rotate 3 (List.filteri (fun i _ -> i mod 2 = 0) candidates)))

let () =
  Alcotest.run "oracle"
    [
      ( "problem_build",
        [
          QCheck_alcotest.to_alcotest reuse_session_matches_oracle;
          Alcotest.test_case "oracle sessions reach every reuse path" `Quick
            test_oracle_reaches_reuse_paths;
          Alcotest.test_case "rotating drift session = oracle" `Quick
            test_rotating_session_matches_oracle;
          Alcotest.test_case "a build of seen clusters and structures makes no call" `Quick
            test_seen_build_costs_nothing;
        ] );
    ]
