(* archpred_analyze: the repo's static analysis, over the .cmt
   artifacts dune already built (see tools/analyze/analyze.mli).

   Exit codes follow Core.Error's CLI convention:
     0  clean
     2  findings, or usage              (Invalid_input)
     4  a cmt / registry file unreadable (Io_error)
     5  a registry file failed to parse  (Parse_error)

   With --json, output is JSON-lines: one `finding` record per result,
   then one `summary`; fatal errors emit a single `error` record. *)

module Error = Archpred_obs.Error
module Json = Archpred_obs.Json
module Analyze = Analyze_engine.Analyze

let usage =
  "usage: archpred_analyze [--root DIR] [--json] [--rules]\n\
   Loads every lib/ bin/ bench/ test/ tools/ .cmt under --root (default .),\n\
   probing both ROOT/_build/default and ROOT itself, and runs the\n\
   domain-race, hot-alloc and purity passes and the file-local checks.\n\
   Registries live in tools/analyze/ (sanctions.sexp, hotpaths.sexp).\n\
   --rules prints the rule table."

let bad_usage what =
  raise (Error.Archpred (Error.Invalid_input { where = "archpred_analyze"; what }))

let parse_args argv =
  let root = ref "." and json = ref false and list_rules = ref false in
  let rec go = function
    | [] -> ()
    | "--root" :: dir :: rest ->
        root := dir;
        go rest
    | [ "--root" ] -> bad_usage "--root needs a directory argument"
    | "--json" :: rest ->
        json := true;
        go rest
    | "--rules" :: rest ->
        list_rules := true;
        go rest
    | ("--help" | "-h") :: _ ->
        print_endline usage;
        exit 0
    | arg :: _ -> bad_usage ("unknown argument " ^ arg)
  in
  go (List.tl (Array.to_list argv));
  (!root, !json, !list_rules)

let emit_json j = print_endline (Json.to_string j)

let report_error ~json e =
  if json then
    emit_json
      (Json.Obj
         [
           ("event", Json.String "error");
           ( "class",
             Json.String
               (match e with
               | Error.Invalid_input _ -> "invalid_input"
               | Error.Invalid_env _ -> "invalid_env"
               | Error.Io_error _ -> "io_error"
               | Error.Parse_error _ -> "parse_error"
               | Error.Infeasible _ -> "infeasible") );
           ("message", Json.String (Error.to_string e));
           ("exit_code", Json.Int (Error.exit_code e));
         ])
  else begin
    let msg = Error.to_string e in
    let prefixed =
      String.length msg >= 16
      && String.equal (String.sub msg 0 16) "archpred_analyze"
    in
    Printf.eprintf "%s%s\n" (if prefixed then "" else "archpred_analyze: ") msg
  end;
  exit (Error.exit_code e)

let () =
  let root, json, list_rules =
    try parse_args Sys.argv with Error.Archpred e -> report_error ~json:false e
  in
  if list_rules then begin
    List.iter
      (fun (id, descr) -> Printf.printf "%-14s %s\n" id descr)
      Analyze.rules;
    exit 0
  end;
  match
    Error.guard (fun () ->
        let cmt_paths = Analyze.discover_cmts ~root in
        if cmt_paths = [] then
          Error.invalid_input ~where:"archpred_analyze"
            ("no .cmt artifacts under " ^ root
           ^ " (run `dune build` first, or pass --root)");
        Analyze.analyze ~root ~cmt_paths ())
  with
  | Result.Error e -> report_error ~json e
  | Ok findings ->
      let errors = Analyze.errors findings in
      if json then begin
        List.iter (fun f -> emit_json (Analyze.to_json f)) findings;
        emit_json
          (Json.Obj
             [ ("event", Json.String "summary"); ("errors", Json.Int errors) ])
      end
      else begin
        List.iter (fun f -> Format.printf "%a@." Analyze.pp_finding f) findings;
        if errors > 0 then
          Printf.printf "archpred_analyze: %d finding(s)\n" errors
      end;
      if errors > 0 then
        exit
          (Error.exit_code
             (Error.Invalid_input
                { where = "archpred_analyze"; what = "findings" }))
