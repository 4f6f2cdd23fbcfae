(* The traced run: the per-layer numbers, taken in two passes from this
   file only.

   Pass 1 replays the trace through the serve loop with the observability
   registry on, times every feed_sql call (window-closing or not), and
   reads the counters and spans the libraries already publish.

   Pass 2 times the per-statement layers from outside.  It replays the
   same texts against a twin database, migrated before each window to the
   design that window was served under, and calls the layers serve calls
   one by one: template-cached parse, statistics, cost key, execution.
   Its per-window execution I/O must equal the served windows' I/O.  This
   pass is the only code in the benchmark that uses Cost_key and
   execute's [?statement_key]: the serve loop's own plumbing, which later
   library changes are free to reshape. *)

module Database = Cddpd_engine.Database
module Cost_key = Cddpd_engine.Cost_key
module Server = Cddpd_serve.Server
module Parser = Cddpd_sql.Parser
module Template = Cddpd_sql.Template
module Ast = Cddpd_sql.Ast
module Obs = Cddpd_obs

type pass1 = {
  outcome : Replay.outcome;
  ingest_s : float;  (** feed_sql calls that closed no window *)
  close_s : float;  (** feed_sql calls that closed one *)
  snapshot : Obs.Snapshot.t;
  spans : (string * float) list;  (** total seconds per span name *)
}

let span_names =
  [ "serve.deploy"; "problem.build"; "problem.build.exec"; "problem.build.trans"; "advisor.kaware" ]

(* Summed over every place the span appears in the tree. *)
let span_totals () =
  let totals = Hashtbl.create 8 in
  let rec walk node =
    let name = Obs.Span.name node in
    if List.mem name span_names then
      Hashtbl.replace totals name
        (Obs.Span.total_s node +. Option.value ~default:0.0 (Hashtbl.find_opt totals name));
    List.iter walk (Obs.Span.children node)
  in
  List.iter walk (Obs.Span.roots ());
  List.map (fun n -> (n, Option.value ~default:0.0 (Hashtbl.find_opt totals n))) span_names

let pass1 (w : Traffic.t) =
  let server, _ = Replay.setup w in
  Obs.Registry.reset_values ();
  Obs.Span.reset ();
  let ingest_s = ref 0.0 in
  let close_s = ref 0.0 in
  let on_feed ~closed d =
    if closed then close_s := !close_s +. d else ingest_s := !ingest_s +. d
  in
  let outcome =
    Obs.Registry.with_enabled (fun () -> Replay.run ~on_feed server w.Traffic.texts)
  in
  {
    outcome;
    ingest_s = !ingest_s;
    close_s = !close_s;
    snapshot = Obs.Snapshot.capture ();
    spans = span_totals ();
  }

type pass2 = {
  parse_s : float;
  stats_s : float;
  key_s : float;
  execute_s : float;
  total_s : float;  (** the whole probe replay, migrations included *)
  stats_refreshes : int;  (** statistics reads that found them invalidated *)
  mismatches : string list;  (** windows whose I/O differs from the served one *)
}

let pass2 (w : Traffic.t) (served : Server.report) =
  let db = Replay.database w in
  let cache = Template.create () in
  let parse_s = ref 0.0 and stats_s = ref 0.0 and key_s = ref 0.0 and execute_s = ref 0.0 in
  let refreshes = ref 0 in
  let last_gen = ref (Database.stats_generation db "t") in
  let windows = served.Server.windows in
  let n_windows = Array.length windows in
  let io = Array.make (n_windows + 1) 0 in
  let timed cell f =
    let t0 = Replay.now () in
    let r = f () in
    cell := !cell +. (Replay.now () -. t0);
    r
  in
  let t0 = Replay.now () in
  Array.iteri
    (fun j text ->
      let wi = min (j / w.Traffic.window) n_windows in
      if j mod w.Traffic.window = 0 then
        Database.migrate_to db
          (if wi < n_windows then windows.(wi).Server.design else served.Server.final_design);
      let entry =
        match timed parse_s (fun () -> Parser.parse_cached cache text) with
        | Ok entry -> entry
        | Error message -> failwith ("probe: parse error: " ^ message)
      in
      let statement = entry.Template.statement in
      (* As serve does: a read reuses its text's (generation, key) tag
         while the statistics generation holds, and only otherwise reads
         the statistics and keys the statement; DML is keyed at window
         close, not here.  A text that passed validation once skips it. *)
      let statement_key =
        if Ast.is_read_only statement then begin
          let gen = Database.stats_generation db "t" in
          match entry.Template.cost_tag with
          | Some (g, key) when g = gen -> Some key
          | _ ->
              if gen <> !last_gen then begin
                incr refreshes;
                last_gen := gen
              end;
              let stats = timed stats_s (fun () -> Database.table_stats db "t") in
              let key = timed key_s (fun () -> Cost_key.statement stats statement) in
              entry.Template.cost_tag <- Some (gen, key);
              Some key
        end
        else None
      in
      let result =
        timed execute_s (fun () ->
            Database.execute ?statement_key ~skip_check:entry.Template.validated db statement)
      in
      entry.Template.validated <- true;
      io.(wi) <- io.(wi) + result.Database.logical_io)
    w.Traffic.texts;
  let total_s = Replay.now () -. t0 in
  let mismatches = ref [] in
  Array.iteri
    (fun i (win : Server.window_report) ->
      if io.(i) <> win.Server.exec_logical_io then
        mismatches :=
          Printf.sprintf "window %d: probe I/O %d, served %d" i io.(i) win.Server.exec_logical_io
          :: !mismatches)
    windows;
  let residual_io = served.Server.exec_logical_io - Replay.window_io_sum served in
  if io.(n_windows) <> residual_io then
    mismatches :=
      Printf.sprintf "residual: probe I/O %d, served %d" io.(n_windows) residual_io :: !mismatches;
  {
    parse_s = !parse_s;
    stats_s = !stats_s;
    key_s = !key_s;
    execute_s = !execute_s;
    total_s;
    stats_refreshes = !refreshes;
    mismatches = List.rev !mismatches;
  }
