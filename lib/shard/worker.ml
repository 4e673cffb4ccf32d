module Obs = Archpred_obs
module Fault = Archpred_fault.Fault
module Pipeline = Archpred_core.Pipeline

(* The merged values of a completed stage, from the worker's scan. *)
let read scan ~stage ~count = Journal.stage_values scan ~stage ~count

(* Process every unit of one stage the scan shows incomplete, in order:
   take up to [batch] consecutive ones, compute them in one fan-out,
   journal and commit each unit, repeat.  Fault site ["shard.unit"]
   fires once per unit taken, before the computation. *)
let run_stage ~obs scan ~journal ~chunk ~batch (stage : Pipeline.stage) =
  let todo =
    List.filter
      (fun (u : Plan.unit_) ->
        not
          (Journal.unit_complete scan ~stage:u.Plan.stage ~lo:u.Plan.lo
             ~hi:u.Plan.hi))
      (Array.to_list
         (Plan.units ~stage:stage.Pipeline.name ~count:stage.Pipeline.count
            ~chunk))
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
    Journal.record_unit scan ~stage:u.Plan.stage ~lo:u.Plan.lo values;
    Obs.incr obs "shard.units_done"
  in
  let rec extend run (last : Plan.unit_) = function
    | (u : Plan.unit_) :: rest
      when List.length run < batch && u.Plan.lo = last.Plan.hi ->
        extend (u :: run) u rest
    | rest -> (List.rev run, rest)
  in
  let rec drive = function
    | [] -> ()
    | (first : Plan.unit_) :: rest ->
        let run, rest = extend [ first ] first rest in
        List.iter (fun _ -> Fault.point "shard.unit") run;
        let lo = first.Plan.lo in
        let hi = (List.nth run (List.length run - 1)).Plan.hi in
        let values =
          Obs.with_span obs span @@ fun () ->
          stage.Pipeline.compute (read scan) ~lo ~hi
        in
        Obs.with_span obs "shard.commit" (fun () ->
            List.iter (commit ~lo values) run);
        drive rest
  in
  drive todo

let work ?(obs = Obs.null) ~fingerprint pipeline ~dir =
  Obs.incr obs "shard.scans";
  let scan = Journal.scan_dir ~dir ~fingerprint in
  let journal = Journal.open_ ~dir ~worker:"w0" ~fingerprint in
  Fun.protect
    ~finally:(fun () -> Journal.close journal)
    (fun () ->
      Pipeline.walk pipeline ~read:(read scan)
        (run_stage ~obs scan ~journal
           ~chunk:(Pipeline.unit_size pipeline)
           ~batch:(Pipeline.domains pipeline)))
