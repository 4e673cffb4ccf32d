module Obs = Archpred_obs
module Fault = Archpred_fault.Fault

type outcome = {
  result : Archpred_core.Pipeline.outcome;
  test_error : Archpred_stats.Error_metrics.t option;
}

let mkdir_p dir =
  match Unix.mkdir dir 0o755 with
  | () -> ()
  | exception Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  | exception Unix.Unix_error (err, _, _) ->
      Obs.Error.io_error ~path:dir (Unix.error_message err)

(* Take the run directory's lock, <dir>/lock, for this process.  The
   kernel drops it when the process dies, so it never goes stale. *)
let lock ~dir =
  let path = Filename.concat dir "lock" in
  let fd =
    match
      Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_CLOEXEC ] 0o644
    with
    | fd -> fd
    | exception Unix.Unix_error (err, _, _) ->
        Obs.Error.io_error ~path (Unix.error_message err)
  in
  match Unix.lockf fd Unix.F_TLOCK 0 with
  | () -> fd
  | exception Unix.Unix_error (err, _, _) -> (
      Unix.close fd;
      match err with
      | Unix.EAGAIN | Unix.EACCES ->
          Obs.Error.io_error ~path:dir
            "the run directory is in use by another archpred process"
      | _ -> Obs.Error.io_error ~path (Unix.error_message err))

(* Make [dir] the run directory of [spec]: a new directory gets the
   spec, an existing one resumes only if it holds the same spec. *)
let prepare ~dir spec =
  let fingerprint = Spec.fingerprint spec in
  (if Sys.file_exists (Filename.concat dir "spec.json") then (
     if not (String.equal (Spec.fingerprint (Spec.load ~dir)) fingerprint) then
       Obs.Error.parse_error ~where:dir ~line:1
         "the run directory holds a different run's spec (fingerprint \
          mismatch); use a fresh directory")
   else Spec.save ~dir spec);
  Journal.init ~dir;
  fingerprint

let run ?(obs = Obs.null) ~dir ~spec ~domains () =
  mkdir_p dir;
  let lock = lock ~dir in
  Fun.protect ~finally:(fun () -> Unix.close lock) @@ fun () ->
  let fingerprint = prepare ~dir spec in
  let pipeline = Spec.pipeline ~obs ~domains spec in
  Worker.work ~obs ~fingerprint pipeline ~dir;
  Fault.point "shard.merge";
  let read = Journal.stage_values (Journal.scan_dir ~dir ~fingerprint) in
  let result = Archpred_core.Pipeline.assemble pipeline read in
  let test_error =
    if spec.Spec.test_n = 0 then None
    else
      Some
        (Archpred_core.Predictor.errors_on
           result.Archpred_core.Pipeline.final.Archpred_core.Pipeline.predictor
           ~points:(Archpred_core.Pipeline.test_points pipeline)
           ~actual:(Archpred_core.Pipeline.test_actuals pipeline read))
  in
  { result; test_error }
