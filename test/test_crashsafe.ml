(* Crash-safety tests: the run directory that [--checkpoint] journals a
   build into, atomic model persistence, worker fault isolation, and the
   deterministic fault-injection harness that drives them.

   The central invariant, asserted over and over: interrupting a
   checkpointed build anywhere — a crash at a unit or at a result
   append, a torn journal tail cut at every byte, a corrupt tail
   line — and rerunning it on the same directory yields a model whose
   [Persist.to_string] is *byte-identical* to an uninterrupted
   single-process build, at 1 and at 2 domains. *)

module Core = Archpred_core
module Paper_space = Core.Paper_space
module Response = Core.Response
module Build = Core.Build
module Config = Core.Config
module Persist = Core.Persist
module Obs = Archpred_obs
module Parallel = Archpred_stats.Parallel
module Rng = Archpred_stats.Rng
module Fault = Archpred_fault.Fault
module Shard = Archpred_shard
module Spec = Shard.Spec
module Coordinator = Shard.Coordinator

let with_faults f =
  Fault.reset ();
  Fun.protect ~finally:Fault.reset f

let tmp_path suffix =
  let path = Filename.temp_file "archpred_crashsafe" suffix in
  Sys.remove path;
  path

let rm path = try Sys.remove path with Sys_error _ -> ()

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (_, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

(* A fresh path for a run directory; the coordinator creates it. *)
let with_run_dir f =
  let dir = tmp_path ".run" in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* A cheap deterministic response without a batched evaluator, so
   [Build.train] simulates it task by task through the retry budget and
   the ["sim.task"] site. *)
let smooth = Response.synthetic_smooth ~dim:9

let base_config ?(domains = 1) () =
  Config.default |> Config.with_seed 11 |> Config.with_sample_size 12
  |> Config.with_lhs_candidates 5
  |> Config.with_p_min_grid [ 1 ]
  |> Config.with_alpha_grid [ 7. ]
  |> Config.with_domains domains

let train ?domains () =
  Build.train ~config:(base_config ?domains ()) ~space:Paper_space.space
    ~response:smooth ()

(* The build [--checkpoint] journals: 4 test points, 2 LHS units, 4
   simulation units and one tuning unit of [shard_unit] 3. *)
let spec ?(seed = 11) () =
  {
    Spec.benchmark = "synthetic:smooth";
    metric = Response.Cpi;
    seed;
    trace_length = 2000;
    sample_size = 12;
    test_n = 4;
    lhs_candidates = 5;
    criterion = Archpred_rbf.Criteria.Aicc;
    p_min_grid = [ 1 ];
    alpha_grid = [ 7. ];
    shard_unit = 3;
    nested = false;
    mode = Spec.Train;
  }

let units_in_run = 9

(* One result per index: 4 test points, 5 candidates, 12 design points
   and one tuning cell. *)
let results_in_run = 22

(* [archpred train --checkpoint dir] at [domains]: the model and the
   number of units this run computed (the rest it found committed). *)
let checkpointed ?(spec = spec ()) ~domains dir =
  let obs = Obs.create () in
  let outcome =
    Coordinator.run ~obs ~dir ~spec ~domains ()
  in
  ( Persist.to_string
      outcome.Coordinator.result.Core.Pipeline.final.Build.predictor,
    Obs.counter obs "shard.units_done" )

(* The single-process twin every checkpointed run must reproduce: the
   held-out test points are drawn before the build, as a run directory
   draws them. *)
let reference =
  lazy
    (let s = spec () in
     let rng = Rng.create s.Spec.seed in
     ignore (Paper_space.test_points rng ~n:s.Spec.test_n);
     let config = Spec.config s |> Config.with_rng rng in
     Persist.to_string
       (Build.train ~config ~space:Paper_space.space ~response:(Spec.response s)
          ())
         .Build.predictor)

let check_model_identical ctx model =
  Alcotest.(check string)
    (ctx ^ ": bit-identical model")
    (Lazy.force reference) model

let domain_counts = [ 1; 2 ]

(* ---------- run directory basics ---------- *)

let test_checkpoint_fresh_and_resume () =
  List.iter
    (fun domains ->
      with_run_dir @@ fun dir ->
      let model, units = checkpointed ~domains dir in
      check_model_identical (Printf.sprintf "fresh, domains=%d" domains) model;
      Alcotest.(check int) "every unit computed" units_in_run units;
      (* Rerunning a complete directory replays everything. *)
      let model, units = checkpointed ~domains dir in
      check_model_identical "resumed complete run" model;
      Alcotest.(check int) "nothing recomputed" 0 units)
    domain_counts

let test_checkpoint_header_mismatch () =
  with_run_dir @@ fun dir ->
  ignore (checkpointed ~domains:1 dir);
  Alcotest.(check bool) "different seed refused" true
    (match checkpointed ~spec:(spec ~seed:12 ()) ~domains:1 dir with
    | exception Obs.Error.Archpred (Obs.Error.Parse_error _) -> true
    | _ -> false);
  (* The refusal leaves the run intact. *)
  check_model_identical "original run still resumes"
    (fst (checkpointed ~domains:1 dir))

(* ---------- crash matrix ---------- *)

(* Arm [site] to fail permanently from its [k]-th hit, run a checkpointed
   build, then disarm and rerun it on the same directory.  The run
   crashes exactly when [k] is within its [hits] hits of the site, and
   either way the model after the rerun must be byte-identical to the
   uninterrupted one. *)
let crash_and_resume ~domains ~site ~hits ~k =
  with_run_dir @@ fun dir ->
  with_faults @@ fun () ->
  Fault.arm ~site ~after:k ~sticky:true ();
  let completed =
    match checkpointed ~domains dir with
    | model, _ -> Some model
    | exception Fault.Injected _ -> None
  in
  Fault.reset ();
  let ctx = Printf.sprintf "%s k=%d domains=%d" site k domains in
  Alcotest.(check bool) (ctx ^ ": crashed") (k <= hits) (completed = None);
  match completed with
  | Some model -> check_model_identical (ctx ^ " (no crash)") model
  | None ->
      check_model_identical (ctx ^ " (resumed)")
        (fst (checkpointed ~domains dir))

(* A crash at every hit of [site] in one run, and one beyond it. *)
let crash_matrix ~site ~hits () =
  List.iter
    (fun domains ->
      for k = 1 to hits + 1 do
        crash_and_resume ~domains ~site ~hits ~k
      done)
    domain_counts

let test_transient_fault_absorbed_by_retry () =
  (* A one-shot (non-sticky) task fault is absorbed by [Build.train]'s
     retry budget: training completes in one run. *)
  let uninterrupted = Persist.to_string (train ()).Build.predictor in
  List.iter
    (fun domains ->
      with_faults @@ fun () ->
      Fault.arm ~site:"sim.task" ~after:3 ();
      Alcotest.(check string)
        (Printf.sprintf "transient domains=%d: bit-identical model" domains)
        uninterrupted
        (Persist.to_string (train ~domains ()).Build.predictor))
    [ 1; 4 ]

let test_infeasible_reports_and_journals () =
  with_faults @@ fun () ->
  (* [Build.train]: tasks failing past the retry budget end as one
     Infeasible, and the pool counts them. *)
  Fault.arm ~site:"sim.task" ~after:5 ~sticky:true ();
  let obs = Obs.create () in
  let config = { (base_config () |> Config.with_obs obs) with task_retries = 0 } in
  (match Build.train ~config ~space:Paper_space.space ~response:smooth () with
  | _ -> Alcotest.fail "expected Infeasible"
  | exception Obs.Error.Archpred (Obs.Error.Infeasible _) -> ());
  Alcotest.(check bool) "pool.failed_tasks counted" true
    (Obs.counter obs "pool.failed_tasks" > 0);
  Fault.reset ();
  (* A checkpointed build that fails permanently at its fifth unit (the
     first simulation unit) leaves the four before it committed: the
     rerun computes only the rest. *)
  List.iter
    (fun domains ->
      with_run_dir @@ fun dir ->
      Fault.arm ~site:"shard.unit" ~after:5 ~sticky:true ();
      (match checkpointed ~domains dir with
      | _ -> Alcotest.fail "expected the injected failure"
      | exception Fault.Injected _ -> ());
      Fault.reset ();
      let model, units = checkpointed ~domains dir in
      check_model_identical
        (Printf.sprintf "after the failure, domains=%d" domains)
        model;
      Alcotest.(check int)
        (Printf.sprintf "completed units journaled, domains=%d" domains)
        (units_in_run - 4) units)
    domain_counts

(* ---------- torn tail ---------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> In_channel.input_all ic)

let write_file path data =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc data)

let journal dir = Filename.concat (Filename.concat dir "journals") "w0.journal"

let test_torn_tail_every_byte () =
  List.iter
    (fun domains ->
      with_run_dir @@ fun dir ->
      ignore (checkpointed ~domains dir);
      let full = read_file (journal dir) in
      let size = String.length full in
      (* Start of the last line, the final unit's commit marker (the
         final byte is its newline). *)
      let last_start = String.rindex_from full (size - 2) '\n' + 1 in
      for cut = last_start to size - 1 do
        write_file (journal dir) (String.sub full 0 cut);
        let model, units = checkpointed ~domains dir in
        check_model_identical
          (Printf.sprintf "torn at byte %d, domains=%d" cut domains)
          model;
        Alcotest.(check int)
          (Printf.sprintf "the torn unit recomputed (cut %d)" cut)
          1 units;
        (* Back to the torn state for the next cut. *)
        write_file (journal dir) full
      done)
    domain_counts

let test_torn_tail_garbage_line () =
  (* A complete but corrupted tail line (bad checksum) is also dropped. *)
  List.iter
    (fun domains ->
      with_run_dir @@ fun dir ->
      ignore (checkpointed ~domains dir);
      write_file (journal dir)
        (read_file (journal dir) ^ "deadbeef {\"type\":\"unit\"}\n");
      let model, units = checkpointed ~domains dir in
      check_model_identical "corrupt tail line" model;
      Alcotest.(check int) "nothing recomputed" 0 units)
    domain_counts

(* ---------- atomic persistence ---------- *)

let predictor = lazy (train ()).Build.predictor

let test_save_atomic_under_faults () =
  List.iter
    (fun site ->
      with_faults @@ fun () ->
      let path = tmp_path ".model" in
      Fun.protect ~finally:(fun () -> rm path; rm (path ^ ".tmp")) @@ fun () ->
      let p = Lazy.force predictor in
      Persist.save p path;
      let before = read_file path in
      Fault.arm ~site ~after:1 ();
      (match Persist.save p path with
      | () -> Alcotest.failf "%s: expected injected fault" site
      | exception Fault.Injected _ -> ());
      Alcotest.(check string)
        (site ^ ": old model survives the failed save")
        before (read_file path);
      Alcotest.(check bool)
        (site ^ ": no temp file left behind")
        false
        (Sys.file_exists (path ^ ".tmp"));
      Alcotest.(check bool)
        (site ^ ": surviving model still loads")
        true
        (ignore (Persist.load path); true))
    [ "io.write"; "persist.rename" ]

let test_save_then_load_verifies_crc () =
  let path = tmp_path ".model" in
  Fun.protect ~finally:(fun () -> rm path) @@ fun () ->
  let p = Lazy.force predictor in
  Persist.save p path;
  let text = read_file path in
  (* flip one byte in the body: load must reject the file *)
  let corrupt = Bytes.of_string text in
  let i = String.index text '.' in
  Bytes.set corrupt i ',';
  write_file path (Bytes.to_string corrupt);
  Alcotest.(check bool) "corrupted model rejected" true
    (match Persist.load path with
    | exception Obs.Error.Archpred (Obs.Error.Parse_error _) -> true
    | _ -> false)

let strip_trailer text =
  (* drop the final "crc xxxxxxxx" line *)
  let no_nl = String.sub text 0 (String.length text - 1) in
  let last = String.rindex no_nl '\n' in
  String.sub text 0 (last + 1)

let as_version_1 text =
  let body = strip_trailer text in
  "archpred-model 1" ^ String.sub body 16 (String.length body - 16)

let test_version_1_still_loads () =
  let p = Lazy.force predictor in
  let v2 = Persist.to_string p in
  let v1 = as_version_1 v2 in
  let loaded = Persist.of_string v1 in
  let probe = Array.make 9 0.25 in
  Alcotest.(check (float 0.)) "same prediction from a version-1 file"
    (Core.Predictor.predict p probe)
    (Core.Predictor.predict loaded probe)

let parse_error_line f =
  match f () with
  | exception Obs.Error.Archpred (Obs.Error.Parse_error { line; _ }) -> Some line
  | _ -> None

let test_reject_center_count_mismatch () =
  let p = Lazy.force predictor in
  let v1 = as_version_1 (Persist.to_string p) in
  let lines = String.split_on_char '\n' v1 |> List.filter (fun l -> l <> "") in
  let n_lines = List.length lines in
  let center_line =
    List.find (fun l -> String.length l > 7 && String.sub l 0 7 = "center ") lines
  in
  (* duplicated center line: one more center than the header declares *)
  let dup = v1 ^ center_line ^ "\n" in
  (match parse_error_line (fun () -> Persist.of_string dup) with
  | Some line ->
      Alcotest.(check int) "duplicate center rejected at the extra line"
        (n_lines + 1) line
  | None -> Alcotest.fail "duplicate center line accepted");
  (* missing center line: one fewer than declared *)
  let missing =
    String.concat "\n" (List.filteri (fun i _ -> i <> n_lines - 1) lines) ^ "\n"
  in
  (match parse_error_line (fun () -> Persist.of_string missing) with
  | Some line ->
      Alcotest.(check int) "missing center rejected at eof line" n_lines line
  | None -> Alcotest.fail "missing center line accepted");
  (* stray trailing junk *)
  (match parse_error_line (fun () -> Persist.of_string (v1 ^ "junk\n")) with
  | Some _ -> ()
  | None -> Alcotest.fail "trailing junk accepted")

(* ---------- total model reader ---------- *)

(* Any bytes give a model or a typed error, never an untyped exception. *)
let persist_total text =
  match Persist.of_string text with
  | _ -> true
  | exception Obs.Error.Archpred _ -> true

let v1_model lines = String.concat "\n" ("archpred-model 1" :: lines) ^ "\n"

let model_tail = [ "p_min 1"; "alpha 7"; "centers 1 1"; "center 0.5 0.5 1" ]
let one_param = [ "space 1"; "param p 0 1 S linear float"; "p_min 1"; "alpha 7" ]

(* Well-formed lines whose values a constructor rejects, each with the
   line the error must name. *)
let rejected_values =
  [
    ( "levels not an int", 3,
      v1_model ("space 1" :: "param p 0 1 x linear int" :: model_tail) );
    ( "lo = hi", 3,
      v1_model ("space 1" :: "param p 1 1 S linear int" :: model_tail) );
    ("no parameters", 2, v1_model [ "space 0" ]);
    ("negative dimension", 2, v1_model [ "space -1" ]);
    ("no centers", 6, v1_model (one_param @ [ "centers 0 1" ]));
    ( "zero radius", 7,
      v1_model (one_param @ [ "centers 1 1"; "center 0.5 0 1" ]) );
  ]

let test_persist_rejected_values () =
  List.iter
    (fun (what, line, text) ->
      Alcotest.(check (option int))
        (what ^ ": parse error at its line")
        (Some line)
        (parse_error_line (fun () -> Persist.of_string text)))
    rejected_values

let test_persist_every_prefix () =
  let v2 = Persist.to_string (Lazy.force predictor) in
  List.iter
    (fun full ->
      for cut = 0 to String.length full do
        if not (persist_total (String.sub full 0 cut)) then
          Alcotest.failf "model prefix %d raised an untyped exception" cut
      done)
    [ v2; as_version_1 v2 ]

let byte_soup =
  QCheck2.Gen.(string_size ~gen:(char_range '\x00' '\xff') (int_range 0 256))

(* Version-1 files (no checksum) of random lines over the format's own
   words and numbers, so the soup reaches every line's parser. *)
let line_soup =
  let open QCheck2.Gen in
  let word =
    oneofl
      [ "space"; "param"; "p_min"; "alpha"; "centers"; "center"; "p"; "q";
        "0"; "1"; "2"; "-1"; "0.5"; "1e308"; "nan"; "inf"; "S"; "x";
        "linear"; "log"; "int"; "float" ]
  in
  let line = map (String.concat " ") (list_size (int_range 0 5) word) in
  map v1_model (list_size (int_range 0 8) line)

let persist_soup name gen =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name gen persist_total)

(* ---------- worker fault isolation ---------- *)

let shape = function Ok v -> Printf.sprintf "ok:%d" v | Error _ -> "error"

let test_map_fallible_deterministic_across_domains () =
  let xs = Array.init 20 Fun.id in
  let f x = if x mod 3 = 0 then failwith "boom" else 2 * x in
  let run domains =
    let r0 = Parallel.retries_total () and f0 = Parallel.failed_total () in
    let out = Parallel.map_fallible ~domains ~retries:2 f xs in
    ( Array.to_list (Array.map shape out),
      Parallel.retries_total () - r0,
      Parallel.failed_total () - f0 )
  in
  let s1, r1, f1 = run 1 in
  let s4, r4, f4 = run 4 in
  Alcotest.(check (list string)) "same ok/error shape at 1 vs 4 domains" s1 s4;
  Alcotest.(check int) "same retry count" r1 r4;
  Alcotest.(check int) "same failure count" f1 f4;
  Alcotest.(check int) "2 retries per failing element" (7 * 2) r1;
  Alcotest.(check int) "each failing element fails once" 7 f1

let test_pool_survives_failures () =
  (* Error slots must not poison the pool for later parallel sections. *)
  let xs = Array.init 16 Fun.id in
  ignore (Parallel.map_fallible ~domains:4 (fun _ -> failwith "boom") xs);
  let doubled = Parallel.map ~domains:4 (fun x -> x * 2) xs in
  Alcotest.(check int) "pool still works" 30 doubled.(15)

let () =
  Alcotest.run "crashsafe"
    [
      ( "checkpoint",
        [
          Alcotest.test_case "fresh and resume" `Quick
            test_checkpoint_fresh_and_resume;
          Alcotest.test_case "header mismatch" `Quick
            test_checkpoint_header_mismatch;
        ] );
      ( "crash matrix",
        [
          Alcotest.test_case "shard.unit" `Quick
            (crash_matrix ~site:"shard.unit" ~hits:units_in_run);
          Alcotest.test_case "shard.append" `Quick
            (crash_matrix ~site:"shard.append" ~hits:results_in_run);
          Alcotest.test_case "transient absorbed" `Quick
            test_transient_fault_absorbed_by_retry;
          Alcotest.test_case "infeasible journals" `Quick
            test_infeasible_reports_and_journals;
        ] );
      ( "torn tail",
        [
          Alcotest.test_case "every byte of last record" `Quick
            test_torn_tail_every_byte;
          Alcotest.test_case "corrupt tail line" `Quick
            test_torn_tail_garbage_line;
        ] );
      ( "persist",
        [
          Alcotest.test_case "atomic under faults" `Quick
            test_save_atomic_under_faults;
          Alcotest.test_case "crc detects corruption" `Quick
            test_save_then_load_verifies_crc;
          Alcotest.test_case "version 1 compatibility" `Quick
            test_version_1_still_loads;
          Alcotest.test_case "center count mismatch" `Quick
            test_reject_center_count_mismatch;
          Alcotest.test_case "rejected values are parse errors" `Quick
            test_persist_rejected_values;
          Alcotest.test_case "every prefix is typed" `Quick
            test_persist_every_prefix;
          persist_soup "byte soup gives a model or a typed error" byte_soup;
          persist_soup "line soup gives a model or a typed error" line_soup;
        ] );
      ( "isolation",
        [
          Alcotest.test_case "deterministic across domains" `Quick
            test_map_fallible_deterministic_across_domains;
          Alcotest.test_case "pool survives failures" `Quick
            test_pool_survives_failures;
        ] );
    ]
