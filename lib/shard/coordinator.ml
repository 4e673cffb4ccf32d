module Obs = Archpred_obs
module Fault = Archpred_fault.Fault

type workers =
  | In_process of { domains : int }
  | Processes of { count : int; argv : string -> string array }

type outcome = {
  result : Archpred_core.Pipeline.outcome;
  test_error : Archpred_stats.Error_metrics.t option;
  workers : int;
  respawns : int;
}

let where = "Shard.Coordinator"

type child = { id : string; pid : int }

let mkdir_p dir =
  match Unix.mkdir dir 0o755 with
  | () -> ()
  | exception Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  | exception Unix.Unix_error (err, _, _) ->
      Obs.Error.io_error ~path:dir (Unix.error_message err)

(* "w1.r2" -> "w1": respawn ids stay rooted at the original worker so
   the argv hook can key off a stable base. *)
let base_id id =
  match String.index_opt id '.' with
  | None -> id
  | Some dot -> String.sub id 0 dot

let spawn ~argv id =
  let av = argv id in
  if Array.length av = 0 then
    Obs.Error.invalid_input ~where "argv hook returned an empty vector";
  let pid = Unix.create_process av.(0) av Unix.stdin Unix.stdout Unix.stderr in
  { id; pid }

let kill_children live =
  List.iter
    (fun c ->
      match Unix.kill c.pid Sys.sigterm with
      | () -> ()
      | exception Unix.Unix_error (_, _, _) -> ())
    live

(* Make [dir] the run directory of [spec]: a new directory gets the
   spec, an existing one resumes only if it holds the same spec.  No
   worker is running yet, so every claim on a unit the journals do not
   commit was left by a process that died, and is released. *)
let prepare ~dir spec =
  mkdir_p dir;
  let fingerprint = Spec.fingerprint spec in
  (if Sys.file_exists (Filename.concat dir "spec.json") then (
     if not (String.equal (Spec.fingerprint (Spec.load ~dir)) fingerprint) then
       Obs.Error.parse_error ~where:dir ~line:1
         "the run directory holds a different run's spec (fingerprint \
          mismatch); use a fresh directory")
   else Spec.save ~dir spec);
  Claim.init ~dir;
  Journal.init ~dir;
  let scan = Journal.scan_dir ~dir ~fingerprint in
  Claim.release_all_incomplete ~dir ~complete:(fun ~stage ~lo ~hi ->
      Journal.unit_complete scan ~stage ~lo ~hi);
  fingerprint

(* Spawn [count] worker processes and monitor them until every one has
   exited cleanly.  A child that dies — crash, signal, nonzero exit —
   gets its incomplete claims released and is replaced (fresh id, so the
   replacement's journal does not collide with the casualty's), within
   the respawn budget.  Returns the number of respawns. *)
let supervise ~obs ~dir ~fingerprint ~count ~argv ~max_respawns ~poll =
  let children =
    List.init count (fun k -> spawn ~argv (Printf.sprintf "w%d" k))
  in
  let respawns = ref 0 in
  let rec monitor live =
    match live with
    | [] -> ()
    | _ :: _ ->
        let rec sweep acc = function
          | [] -> List.rev acc
          | c :: rest -> (
              match Unix.waitpid [ Unix.WNOHANG ] c.pid with
              | 0, _ -> sweep (c :: acc) rest
              | _, Unix.WEXITED 0 -> sweep acc rest
              | _, (Unix.WEXITED _ | Unix.WSIGNALED _) ->
                  let scan = Journal.scan_dir ~dir ~fingerprint in
                  Claim.release_incomplete ~dir ~owner:c.id
                    ~complete:(fun ~stage ~lo ~hi ->
                      Journal.unit_complete scan ~stage ~lo ~hi);
                  incr respawns;
                  Obs.incr obs "shard.respawns";
                  if !respawns > max_respawns then (
                    kill_children (List.rev_append acc rest);
                    Obs.Error.infeasible ~where
                      (Printf.sprintf
                         "worker %s died and the respawn budget (%d) is \
                          exhausted"
                         c.id max_respawns));
                  let id = Printf.sprintf "%s.r%d" (base_id c.id) !respawns in
                  sweep (spawn ~argv id :: acc) rest
              | _, Unix.WSTOPPED _ -> sweep (c :: acc) rest
              | exception Unix.Unix_error (Unix.ECHILD, _, _) -> sweep acc rest)
        in
        let live = sweep [] live in
        (match live with [] -> () | _ :: _ -> Unix.sleepf poll);
        monitor live
  in
  monitor children;
  !respawns

let run ?(obs = Obs.null) ~dir ~spec ~workers ?(max_respawns = 8)
    ?(poll = 0.05) () =
  let fingerprint = prepare ~dir spec in
  let pipeline, count, respawns =
    match workers with
    | In_process { domains } ->
        let pipeline = Spec.pipeline ~obs ~domains spec in
        Worker.work ~obs ~fingerprint pipeline ~dir ~id:"w0";
        (pipeline, 1, 0)
    | Processes { count; argv } ->
        if count < 1 then
          Obs.Error.invalid_input ~where "worker count must be >= 1";
        let respawns =
          supervise ~obs ~dir ~fingerprint ~count ~argv ~max_respawns ~poll
        in
        (Spec.pipeline ~obs spec, count, respawns)
  in
  Obs.count obs "shard.workers" count;
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
  { result; test_error; workers = count; respawns }
