module Design = Archpred_design
module Stats = Archpred_stats
module Obs = Archpred_obs
module Fault = Archpred_fault.Fault
module Config = Config

type trained = {
  predictor : Predictor.t;
  sample : Design.Space.point array;
  sample_responses : float array;
  discrepancy : float;
  criterion : float;
  tune : Tune.result;
}

(* Simulate every not-yet-[have] design point with index below [upto],
   filling [results]/[have] in place — the streaming schedule calls this
   once per size step over one growing sample.

   Isolation: each simulation task gets [config.task_retries] retries and
   an optional wall-clock deadline; a permanently failing design point
   ends as an [Error] slot instead of poisoning the pool, and the batch
   is reported as [Archpred (Infeasible _)].  The per-stage retry /
   failed-task deltas flow into [config.obs] as ["pool.retries"] /
   ["pool.failed_tasks"]. *)
let simulate_missing ~(config : Config.t) ~response ~results ~have ~upto
    sample =
  let { Config.domains; obs; task_retries; task_deadline; _ } = config in
  let r0 = Stats.Parallel.retries_total () in
  let f0 = Stats.Parallel.failed_total () in
  let missing =
    Array.of_seq (Seq.filter (fun i -> not have.(i)) (Seq.init upto Fun.id))
  in
  let record i v =
    results.(i) <- v;
    have.(i) <- true
  in
  (* Fast path: a response with a batched evaluator (the simulator)
     runs the missing points in [sim_batch]-sized fan-outs through
     [Sim.Batch] — bit-identical to the pointwise path. *)
  match response.Response.eval_many with
  | Some many when config.Config.sim_batch > 1 ->
      let bs = config.Config.sim_batch in
      let pos = ref 0 in
      while !pos < Array.length missing do
        Fault.point "sim.batch";
        let len = min bs (Array.length missing - !pos) in
        let idx = Array.sub missing !pos len in
        let vals = many ?domains (Array.map (fun i -> sample.(i)) idx) in
        Array.iteri (fun k i -> record i vals.(k)) idx;
        pos := !pos + len
      done
  | Some _ | None -> (
      let outcomes =
        Stats.Parallel.map_fallible ?domains ~retries:task_retries
          ?deadline:task_deadline
          (fun i ->
            Fault.point "sim.task";
            response.Response.eval sample.(i))
          missing
      in
      let failures = ref [] in
      Array.iteri
        (fun k outcome ->
          match outcome with
          | Ok v -> record missing.(k) v
          | Error e -> failures := (missing.(k), e) :: !failures)
        outcomes;
      let failures = List.rev !failures in
      Obs.count obs "pool.retries" (Stats.Parallel.retries_total () - r0);
      Obs.count obs "pool.failed_tasks" (Stats.Parallel.failed_total () - f0);
      match failures with
      | [] -> ()
      | (i0, e0) :: _ ->
          Obs.Error.infeasible ~where:"Build.train"
            (Printf.sprintf
               "%d of %d design points failed permanently (retry budget \
                %d; first failure at point %d: %s)"
               (List.length failures) upto task_retries i0
               (Printexc.to_string e0)))

(* [simulate_missing] as one stage of simulation: when it ends, the
   simulator's idle engines free their memory, which the fitting that
   follows would otherwise carry. *)
let simulate_stage ~config ~response ~results ~have ~upto sample =
  Fun.protect ~finally:Archpred_sim.Batch.trim (fun () ->
      simulate_missing ~config ~response ~results ~have ~upto sample)

let simulate ~config ~response sample =
  let n = Array.length sample in
  let results = Array.make n nan in
  simulate_stage ~config ~response ~results ~have:(Array.make n false) ~upto:n
    sample;
  results

let train ?(config = Config.default) ~space ~response () =
  let config = Config.validate config in
  let { Config.domains; lhs_candidates; obs; sample_size = n; _ } = config in
  let rng = Config.rng_of config in
  Obs.with_span obs "build.train" @@ fun () ->
  let plan =
    Obs.with_span obs "build.sample" @@ fun () ->
    Design.Optimize.best_lhs ~obs ~kind:Design.Discrepancy.Star
      ~candidates:lhs_candidates ?domains rng space ~n
  in
  let sample = plan.Design.Optimize.points in
  let sample_responses =
    Obs.with_span obs "build.simulate" @@ fun () ->
    simulate ~config ~response sample
  in
  let tune =
    Tune.tune ~config
      ~dim:(Design.Space.dimension space)
      ~points:sample ~responses:sample_responses ()
  in
  Obs.gauge obs "pool.queue_depth"
    (float_of_int (Stats.Parallel.queue_depth ()));
  let predictor =
    Predictor.make ~space
      ~network:tune.Tune.selection.Archpred_rbf.Selection.network
      ~tree:tune.Tune.tree ~p_min:tune.Tune.p_min ~alpha:tune.Tune.alpha ()
  in
  {
    predictor;
    sample;
    sample_responses;
    discrepancy = plan.Design.Optimize.discrepancy;
    criterion = tune.Tune.criterion;
    tune;
  }

type step = {
  size : int;
  trained : trained;
  test_error : Stats.Error_metrics.t;
}

type history = { steps : step list; final : step }

(* The streaming schedule: one LHS campaign at the largest size, whose
   prefix is the size-n sample of every earlier step; each step simulates
   only the new rows and extends the tuning state through {!Refit} instead
   of refitting every grid cell from scratch.  A deliberate departure from
   the paper's redraw-per-size procedure, gated behind
   [Config.stream_refit]. *)
let stream_to_accuracy ~(config : Config.t) ~space ~response ~sizes
    ~test_points ~test_responses ~target_mean_pct =
  let config = Config.validate config in
  let { Config.domains; lhs_candidates; obs; _ } = config in
  let n_max = List.fold_left max 1 sizes in
  let rng = Config.rng_of config in
  Obs.with_span obs "build.stream" @@ fun () ->
  let plan =
    Obs.with_span obs "build.sample" @@ fun () ->
    Design.Optimize.best_lhs ~obs ~kind:Design.Discrepancy.Star
      ~candidates:lhs_candidates ?domains rng space ~n:n_max
  in
  let sample = plan.Design.Optimize.points in
  let results = Array.make n_max nan in
  let have = Array.make n_max false in
  let refit = Refit.create config in
  let dim = Design.Space.dimension space in
  let rec go acc = function
    | [] ->
        let steps = List.rev acc in
        { steps; final = List.hd acc }
    | n :: rest ->
        (Obs.with_span obs "build.simulate" @@ fun () ->
         simulate_stage ~config ~response ~results ~have ~upto:n sample);
        let points = Array.sub sample 0 n in
        let responses = Array.sub results 0 n in
        let tune = Refit.fit refit ~dim ~points ~responses in
        let predictor =
          Predictor.make ~space
            ~network:tune.Tune.selection.Archpred_rbf.Selection.network
            ~tree:tune.Tune.tree ~p_min:tune.Tune.p_min
            ~alpha:tune.Tune.alpha ()
        in
        let trained =
          {
            predictor;
            sample = points;
            sample_responses = responses;
            discrepancy = plan.Design.Optimize.discrepancy;
            criterion = tune.Tune.criterion;
            tune;
          }
        in
        let test_error =
          Predictor.errors_on trained.predictor ~points:test_points
            ~actual:test_responses
        in
        let step = { size = n; trained; test_error } in
        if test_error.Stats.Error_metrics.mean_pct <= target_mean_pct
        then { steps = List.rev (step :: acc); final = step }
        else go (step :: acc) rest
  in
  go [] sizes

let build_to_accuracy ?(config = Config.default) ~space ~response ~sizes
    ~test_points ~test_responses ~target_mean_pct () =
  if sizes = [] then
    Obs.Error.invalid_input ~where:"Build.build_to_accuracy"
      "empty size schedule";
  (* All sizes share one generator stream (resolved once), matching the
     pre-Config behaviour of threading a single stateful rng through. *)
  let config = Config.with_rng (Config.rng_of config) config in
  let sizes = List.sort_uniq Int.compare sizes in
  if config.Config.stream_refit then
    stream_to_accuracy ~config ~space ~response ~sizes ~test_points
      ~test_responses ~target_mean_pct
  else
  let rec go acc = function
    | [] ->
        let steps = List.rev acc in
        { steps; final = List.hd acc }
    | n :: rest ->
        let trained =
          train ~config:(Config.with_sample_size n config) ~space ~response ()
        in
        let test_error =
          Predictor.errors_on trained.predictor ~points:test_points
            ~actual:test_responses
        in
        let step = { size = n; trained; test_error } in
        if test_error.Stats.Error_metrics.mean_pct <= target_mean_pct then
          { steps = List.rev (step :: acc); final = step }
        else go (step :: acc) rest
  in
  go [] sizes
