module Obs = Archpred_obs
module Fault = Archpred_fault.Fault
module Pipeline = Archpred_core.Pipeline

(* A worker's view of the merged journals.  It is read once when the
   worker starts, folds in the worker's own commits as they happen, and
   rereads the directory only when no unit of a stage can be claimed.  A
   stale view can cost a failed claim — claims on committed units stay
   in place — but never a duplicate commit, and a stage only ends once
   the view holds all of it, so later stages always compute from
   complete earlier ones. *)
type view = {
  obs : Obs.t;
  dir : string;
  fingerprint : string;
  mutable scan : Journal.scan;
}

let rescan view =
  Obs.incr view.obs "shard.scans";
  view.scan <- Journal.scan_dir ~dir:view.dir ~fingerprint:view.fingerprint

(* Claim the first claimable unit of [todo], then the units right after
   it while they are claimable, up to [batch] units: one computation
   covers the run, so a worker on D domains fans out over D units'
   indices at a time.  Fault site ["shard.unit"] fires after each
   successful claim. *)
let claim_run view ~owner ~batch todo =
  let claim (u : Plan.unit_) =
    Claim.claim ~dir:view.dir ~name:(Plan.unit_name u) ~owner
    && (Fault.point "shard.unit";
        true)
  in
  let rec extend run (last : Plan.unit_) = function
    | (u : Plan.unit_) :: rest
      when List.length run < batch && u.Plan.lo = last.Plan.hi && claim u ->
        extend (u :: run) u rest
    | _ -> List.rev run
  in
  let rec first = function
    | [] -> []
    | u :: rest -> if claim u then extend [ u ] u rest else first rest
  in
  first todo

(* The merged values of a completed stage, from the current view. *)
let read view ~stage ~count = Journal.stage_values view.scan ~stage ~count

(* Process every unit of one stage: claim a run of unclaimed units the
   view shows incomplete, compute it, journal and commit each unit,
   repeat; when every unit is committed (by anyone) the stage is done.
   A worker that finds every unit left claimed by others rescans at
   once, then backs off — 1 ms, doubling up to [poll] — until the stage
   resolves: a dead claimant's units come back when the coordinator
   releases its claims, and a live one's commits show within a few
   milliseconds. *)
let run_stage view ~owner ~journal ~chunk ~batch ~poll
    (stage : Pipeline.stage) =
  let units =
    Array.to_list
      (Plan.units ~stage:stage.Pipeline.name ~count:stage.Pipeline.count ~chunk)
  in
  (* One span per stage kind whatever the step: "sim.3" -> "shard.sim". *)
  let span =
    "shard." ^ List.hd (String.split_on_char '.' stage.Pipeline.name)
  in
  let commit ~lo values (u : Plan.unit_) =
    let values = Array.sub values (u.Plan.lo - lo) (u.Plan.hi - u.Plan.lo) in
    Array.iteri
      (fun k value ->
        Journal.append_result journal ~stage:u.Plan.stage
          ~index:(u.Plan.lo + k) ~value)
      values;
    Journal.commit_unit journal ~stage:u.Plan.stage ~lo:u.Plan.lo
      ~hi:u.Plan.hi;
    Journal.record_unit view.scan ~stage:u.Plan.stage ~lo:u.Plan.lo values;
    Obs.incr view.obs "shard.units_done"
  in
  let rec drive ~idle =
    let todo =
      List.filter
        (fun (u : Plan.unit_) ->
          not
            (Journal.unit_complete view.scan ~stage:u.Plan.stage ~lo:u.Plan.lo
               ~hi:u.Plan.hi))
        units
    in
    match todo with
    | [] -> ()
    | _ :: _ -> (
        let run =
          Obs.with_span view.obs "shard.claim" @@ fun () ->
          claim_run view ~owner ~batch todo
        in
        match run with
        | (first : Plan.unit_) :: _ ->
            let lo = first.Plan.lo in
            let hi = (List.nth run (List.length run - 1)).Plan.hi in
            let values =
              Obs.with_span view.obs span @@ fun () ->
              stage.Pipeline.compute (read view) ~lo ~hi
            in
            Obs.with_span view.obs "shard.commit" (fun () ->
                List.iter (commit ~lo values) run);
            drive ~idle:0
        | [] ->
            (* Everything left is claimed by someone else; wait for the
               commits (or for the coordinator to release dead claims). *)
            if idle > 0 then
              Unix.sleepf (Float.min poll (Float.ldexp 0.001 (idle - 1)));
            rescan view;
            drive ~idle:(idle + 1))
  in
  drive ~idle:0

let work ?(obs = Obs.null) ?(poll = 0.02) ~fingerprint pipeline ~dir ~id =
  Obs.incr obs "shard.scans";
  let view =
    { obs; dir; fingerprint; scan = Journal.scan_dir ~dir ~fingerprint }
  in
  let journal = Journal.open_ ~dir ~worker:id ~fingerprint in
  Fun.protect
    ~finally:(fun () -> Journal.close journal)
    (fun () ->
      Pipeline.walk pipeline ~read:(read view)
        (run_stage view ~owner:id ~journal
           ~chunk:(Pipeline.unit_size pipeline)
           ~batch:(Pipeline.domains pipeline) ~poll))

let run ?(obs = Obs.null) ~dir ~id ?poll () =
  let spec = Spec.load ~dir in
  Claim.init ~dir;
  Journal.init ~dir;
  work ~obs ?poll ~fingerprint:(Spec.fingerprint spec)
    (Spec.pipeline ~obs spec) ~dir ~id
