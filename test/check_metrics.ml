(* Smoke validator for the --metrics JSON-lines stream: every line must
   parse as a JSON object with a known "type", the five pipeline
   stages (LHS sampling, simulation, tree growth, center selection,
   tuning) must all have left a trace, and the simulator must have
   recorded its attribution counters.  Run by the dune smoke rule in
   this directory against a tiny `archpred train --metrics` run. *)

module Json = Archpred_obs.Json

(* archpred-analyze: allow exit -- check harness failure path *)
let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let () =
  let path =
    match Sys.argv with
    | [| _; p |] -> p
    | _ -> fail "usage: check_metrics METRICS.jsonl"
  in
  let ic = open_in path in
  let spans = ref [] and counters = ref [] and gauges = ref [] in
  let lines = ref 0 in
  (try
     while true do
       let line = input_line ic in
       if String.trim line <> "" then begin
         incr lines;
         match Json.of_string line with
         | Error m -> fail "line %d is not valid JSON (%s): %s" !lines m line
         | Ok j -> (
             let str k =
               match Json.member k j with
               | Some (Json.String s) -> s
               | _ -> fail "line %d: missing string field %S: %s" !lines k line
             in
             match str "type" with
             | "span" ->
                 (match Json.member "ns" j with
                 | Some (Json.Int ns) when ns >= 0 -> ()
                 | _ -> fail "line %d: span without ns: %s" !lines line);
                 spans := str "path" :: !spans
             | "counter" ->
                 (match Json.member "value" j with
                 | Some (Json.Int _) -> ()
                 | _ -> fail "line %d: counter without int value: %s" !lines line);
                 counters := str "name" :: !counters
             | "gauge" -> gauges := str "name" :: !gauges
             | other -> fail "line %d: unknown event type %S" !lines other)
       end
     done
   with End_of_file -> close_in ic);
  if !lines = 0 then fail "metrics file %s is empty" path;
  let span_seen stage =
    (* worker-domain spans may surface as root paths, so match the stage
       name as a path component rather than an exact path *)
    List.exists
      (fun path -> List.mem stage (String.split_on_char '/' path))
      !spans
  in
  let counter_seen name = List.mem name !counters in
  let stages =
    [
      ("design.best_lhs", span_seen "design.best_lhs");
      ("build.simulate", span_seen "build.simulate" || counter_seen "sim.runs");
      ("tree.build", span_seen "tree.build");
      ("rbf.select", span_seen "rbf.select");
      ("build.tune", span_seen "build.tune");
    ]
  in
  List.iter
    (fun (stage, ok) -> if not ok then fail "stage %s left no events" stage)
    stages;
  (* The simulator's attribution counters. *)
  List.iter
    (fun name -> if not (counter_seen name) then fail "no %s counter" name)
    [
      "sim.cycles_stepped"; "sim.cycles_skipped"; "sim.issue_attempts";
      "sim.store_walk_steps"; "sim.il1_accesses"; "sim.dl1_accesses";
      "sim.l2_accesses";
    ];
  Printf.printf "ok: %d events, %d span paths, %d counters, %d gauges\n" !lines
    (List.length !spans) (List.length !counters) (List.length !gauges)
