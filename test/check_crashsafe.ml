(* Headless crash-safety smoke check, run under `dune runtest` (like
   check_metrics): a condensed fault-injection crash matrix over the run
   directory that `archpred train --checkpoint DIR` journals a build
   into.  For each injected crash — at a unit, at a result append, a
   torn journal tail — it kills a checkpointed build, reruns it
   on the same directory, and asserts the model is byte-identical
   (Persist.to_string) to an uninterrupted single-process build, at 1
   and 2 domains.  A directory holding a different run must be refused,
   and an interrupted atomic model save must leave the old model
   intact. *)

module Core = Archpred_core
module Build = Core.Build
module Config = Core.Config
module Persist = Core.Persist
module Response = Core.Response
module Shard = Archpred_shard
module Fault = Archpred_fault.Fault
module Error = Archpred_obs.Error

(* archpred-analyze: allow exit -- check harness failure path *)
let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("check_crashsafe: " ^ m); exit 1) fmt

let tmp suffix =
  let path = Filename.temp_file "check_crashsafe" suffix in
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

let spec ?(seed = 11) () =
  {
    Shard.Spec.benchmark = "synthetic:smooth";
    metric = Response.Cpi;
    seed;
    trace_length = 2000;
    sample_size = 10;
    test_n = 3;
    lhs_candidates = 5;
    criterion = Archpred_rbf.Criteria.Aicc;
    p_min_grid = [ 1 ];
    alpha_grid = [ 7. ];
    shard_unit = 2;
    nested = false;
    mode = Shard.Spec.Train;
  }

(* The single-process twin: test points drawn first, then the build. *)
let reference () =
  let s = spec () in
  let rng = Archpred_stats.Rng.create s.Shard.Spec.seed in
  ignore (Core.Paper_space.test_points rng ~n:s.Shard.Spec.test_n);
  let config = Shard.Spec.config s |> Config.with_rng rng in
  Persist.to_string
    (Build.train ~config ~space:Core.Paper_space.space
       ~response:(Shard.Spec.response s) ())
      .Build.predictor

let checkpointed ?(spec = spec ()) ~domains dir =
  let outcome =
    Shard.Coordinator.run ~dir ~spec ~domains ()
  in
  Persist.to_string
    outcome.Shard.Coordinator.result.Core.Pipeline.final.Build.predictor

let checks = ref 0

let check_identical ctx reference model =
  incr checks;
  if not (String.equal reference model) then
    fail "%s: resumed model differs from uninterrupted run" ctx

let with_run_dir f =
  let dir = tmp ".run" in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let crash_resume ~domains ~reference ~site ~k =
  with_run_dir @@ fun dir ->
  Fault.reset ();
  Fault.arm ~site ~after:k ~sticky:true ();
  let ctx = Printf.sprintf "%s k=%d domains=%d" site k domains in
  match checkpointed ~domains dir with
  | model ->
      Fault.reset ();
      check_identical (ctx ^ " (uninterrupted)") reference model
  | exception Fault.Injected _ ->
      Fault.reset ();
      check_identical (ctx ^ " (resumed)") reference (checkpointed ~domains dir)

let torn_tail ~domains ~reference =
  with_run_dir @@ fun dir ->
  ignore (checkpointed ~domains dir);
  let path = Filename.concat (Filename.concat dir "journals") "w0.journal" in
  let full = In_channel.with_open_bin path In_channel.input_all in
  (* cut the journal in the middle of its last line *)
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (String.sub full 0 (String.length full - 7)));
  check_identical
    (Printf.sprintf "torn tail domains=%d" domains)
    reference (checkpointed ~domains dir)

let mismatch_refused () =
  with_run_dir @@ fun dir ->
  ignore (checkpointed ~domains:1 dir);
  incr checks;
  match checkpointed ~spec:(spec ~seed:12 ()) ~domains:1 dir with
  | exception Error.Archpred (Error.Parse_error _) -> ()
  | _ -> fail "a run directory holding another run was not refused"

let persist_atomic () =
  let trained =
    Build.train
      ~config:(Config.default |> Config.with_seed 11 |> Config.with_sample_size 10)
      ~space:Core.Paper_space.space
      ~response:(Response.synthetic_smooth ~dim:9) ()
  in
  let path = tmp ".model" in
  Fun.protect ~finally:(fun () -> rm path; rm (path ^ ".tmp")) @@ fun () ->
  Persist.save trained.Build.predictor path;
  let before = Persist.to_string (Persist.load path) in
  List.iter
    (fun site ->
      Fault.reset ();
      Fault.arm ~site ~after:1 ();
      (match Persist.save trained.Build.predictor path with
      | () -> fail "%s: fault did not fire" site
      | exception Fault.Injected _ -> ());
      Fault.reset ();
      incr checks;
      if Persist.to_string (Persist.load path) <> before then
        fail "%s: interrupted save damaged the existing model" site)
    [ "io.write"; "persist.rename" ]

let () =
  Fun.protect ~finally:Fault.reset @@ fun () ->
  let reference = reference () in
  List.iter
    (fun domains ->
      List.iter
        (fun (site, ks) ->
          List.iter (fun k -> crash_resume ~domains ~reference ~site ~k) ks)
        [
          ("shard.unit", [ 1; 4; 9; 25 ]);
          ("shard.append", [ 1; 5 ]);
        ];
      torn_tail ~domains ~reference)
    [ 1; 2 ];
  mismatch_refused ();
  persist_atomic ();
  Printf.printf "ok: crash matrix passed (%d bit-identical checks)\n" !checks
