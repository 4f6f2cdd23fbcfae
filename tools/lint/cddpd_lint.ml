(* cddpd_lint — static analysis for the cddpd tree.

   Exit codes: 0 clean (no blocking findings, ratchet satisfied),
   1 findings or ratchet growth, 2 usage or internal error, or a source
   file without a fresh cmt.  See docs/LINTING.md for the rule catalogue
   and the baseline workflow. *)

module L = Cddpd_lint_core.Lint_types
module Config = Cddpd_lint_core.Lint_config
module Driver = Cddpd_lint_core.Driver
module Baseline = Cddpd_lint_core.Baseline

let usage = "cddpd_lint [--root DIR] [--format text|json] [options]"

let parse_rule_list ~flag s =
  String.split_on_char ',' s
  |> List.concat_map (String.split_on_char ' ')
  |> List.filter_map (fun tok ->
         match String.trim tok with
         | "" -> None
         | tok -> (
             match L.rule_of_string tok with
             | Some r -> Some r
             | None ->
                 Printf.eprintf "cddpd_lint: unknown rule %S in %s\n" tok flag;
                 exit 2))

let () =
  let root = ref "." in
  let format = ref `Text in
  let out = ref None in
  let only = ref None in
  let disabled = ref [] in
  let show_waived = ref false in
  let list_rules = ref false in
  let baseline_file = ref None in
  let write_baseline = ref None in
  let spec =
    [
      ("--root", Arg.Set_string root, "DIR lint the tree rooted at DIR (default .)");
      ( "--format",
        Arg.Symbol
          ([ "text"; "json" ],
           fun s -> format := if s = "json" then `Json else `Text),
        " output format (default text)" );
      ("-o", Arg.String (fun f -> out := Some f), "FILE write the report to FILE");
      ( "--rules",
        Arg.String (fun s -> only := Some (parse_rule_list ~flag:"--rules" s)),
        "LIST run only these rules (comma-separated ids or R-codes)" );
      ( "--disable",
        Arg.String
          (fun s -> disabled := !disabled @ parse_rule_list ~flag:"--disable" s),
        "LIST turn these rules off" );
      ( "--baseline",
        Arg.String (fun f -> baseline_file := Some f),
        "FILE enforce the waived-finding ratchet against FILE" );
      ( "--write-baseline",
        Arg.String (fun f -> write_baseline := Some f),
        "FILE regenerate FILE from the current waived findings" );
      ("--show-waived", Arg.Set show_waived, " include waived findings in text output");
      ("--list-rules", Arg.Set list_rules, " print the rule catalogue and exit");
    ]
  in
  (try Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage
   with Arg.Bad msg ->
     prerr_endline msg;
     exit 2);
  if !list_rules then begin
    List.iter
      (fun r -> Printf.printf "%-4s %-22s %s\n" (L.rule_code r) (L.rule_id r) (L.rule_doc r))
      L.all_rules;
    exit 0
  end;
  let config =
    let c = Config.default in
    let c = match !only with Some rules -> Config.restrict c rules | None -> c in
    Config.disable c !disabled
  in
  match Driver.run ~config ~root:!root () with
  | exception e ->
      Printf.eprintf "cddpd_lint: internal error: %s\n" (Printexc.to_string e);
      exit 2
  | { Driver.cmt_errors = _ :: _ as errors; _ } ->
      List.iter
        (fun (file, reason) ->
          Printf.eprintf "cddpd_lint: cannot analyze %s: %s\n" file reason)
        errors;
      exit 2
  | report -> (
      let rendered =
        match !format with
        | `Json -> Driver.render_json report
        | `Text -> Driver.render_text ~show_waived:!show_waived report
      in
      (match !out with
      | None -> print_string rendered
      | Some file -> Out_channel.with_open_text file (fun oc -> output_string oc rendered));
      let current = Baseline.of_findings report.Driver.findings in
      (match !write_baseline with
      | None -> ()
      | Some file ->
          Out_channel.with_open_text file (fun oc ->
              output_string oc (Baseline.render current));
          Printf.eprintf "cddpd_lint: wrote %d waived entr%s to %s\n"
            (List.length current)
            (if List.length current = 1 then "y" else "ies")
            file);
      let ratchet_failed =
        match !baseline_file with
        | None -> false
        | Some file -> (
            match Baseline.load file with
            | Error msg ->
                Printf.eprintf
                  "cddpd_lint: cannot read baseline %s: %s\n\
                   (regenerate with --write-baseline %s)\n"
                  file msg file;
                true
            | Ok baseline ->
                let d = Baseline.diff ~baseline ~current in
                prerr_string (Baseline.render_diff d);
                d.Baseline.grown <> [])
      in
      match (Driver.blocking report, ratchet_failed) with
      | [], false -> exit 0
      | _ -> exit 1)
