module Obs = Archpred_obs
module Config = Config

type trained = Pipeline.trained = {
  predictor : Predictor.t;
  sample : Archpred_design.Space.point array;
  sample_responses : float array;
  discrepancy : float;
  criterion : float;
  tune : Tune.result;
}

type step = Pipeline.step = {
  size : int;
  trained : trained;
  test_error : Archpred_stats.Error_metrics.t;
}

type history = { steps : step list; final : step }

(* The in-memory store: a table of stage values, each stage filled range
   by range in the order a lone run-directory worker claims its units —
   [domains] units of [sim_batch] indices per range. *)
let run_in_memory pipeline ~known =
  let table = Hashtbl.create 16 in
  List.iter (fun (name, values) -> Hashtbl.replace table name values) known;
  let read ~stage ~count =
    match Hashtbl.find_opt table stage with
    | Some values when Array.length values = count -> values
    | Some _ | None ->
        Obs.Error.infeasible ~where:"Build"
          (Printf.sprintf "stage %s is incomplete" stage)
  in
  let range = Pipeline.unit_size pipeline * Pipeline.domains pipeline in
  Pipeline.walk pipeline ~read (fun stage ->
      if not (Hashtbl.mem table stage.Pipeline.name) then (
        let count = stage.Pipeline.count in
        let values = Array.make count nan in
        let lo = ref 0 in
        while !lo < count do
          let hi = min count (!lo + range) in
          Array.blit (stage.Pipeline.compute read ~lo:!lo ~hi) 0 values !lo
            (hi - !lo);
          lo := hi
        done;
        Hashtbl.replace table stage.Pipeline.name values));
  Pipeline.assemble pipeline read

let train ?(config = Config.default) ~space ~response () =
  let config = Config.validate config in
  let obs = config.Config.obs in
  Obs.with_span obs "build.train" @@ fun () ->
  let pipeline =
    Pipeline.create ~config ~space ~response ~rng:(Config.rng_of config)
      ~schedule:Pipeline.Train ~test_points:[||]
  in
  let outcome = run_in_memory pipeline ~known:[] in
  Obs.gauge obs "pool.queue_depth"
    (float_of_int (Archpred_stats.Parallel.queue_depth ()));
  outcome.Pipeline.final

let build_to_accuracy ?(config = Config.default) ~space ~response ~sizes
    ~test_points ~test_responses ~target_mean_pct () =
  if Array.length test_points <> Array.length test_responses then
    Obs.Error.invalid_input ~where:"Build.build_to_accuracy"
      "test_points and test_responses differ in length";
  let pipeline =
    Pipeline.create ~config ~space ~response ~rng:(Config.rng_of config)
      ~schedule:(Pipeline.Accuracy { sizes; target_mean_pct })
      ~test_points
  in
  let { Pipeline.steps; _ } =
    run_in_memory pipeline
      ~known:[ (Pipeline.test_stage_name, test_responses) ]
  in
  { steps; final = List.nth steps (List.length steps - 1) }
