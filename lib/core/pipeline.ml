module Design = Archpred_design
module Stats = Archpred_stats
module Rng = Archpred_stats.Rng
module Parallel = Archpred_stats.Parallel
module Obs = Archpred_obs
module Fault = Archpred_fault.Fault

type trained = {
  predictor : Predictor.t;
  sample : Design.Space.point array;
  sample_responses : float array;
  discrepancy : float;
  criterion : float;
  tune : Tune.result;
}

type step = {
  size : int;
  trained : trained;
  test_error : Stats.Error_metrics.t;
}

type schedule =
  | Train
  | Accuracy of { sizes : int list; target_mean_pct : float }

type t = {
  config : Config.t;
  space : Design.Space.t;
  response : Response.t;
  rng : Rng.t;
  sizes : int array;
  target : float option;  (* [None]: train mode *)
  stream : bool;
  cells : (int * float) array;
  test_points : Design.Space.point array;
  (* Values derived from the stages, kept so that no process computes
     one twice: the candidate streams and winning sample of each LHS
     step, the best tuning cell this process has fitted per step, and
     each assembled step. *)
  streams : (int, Rng.t array) Hashtbl.t;
  winners : (int, Design.Space.point array) Hashtbl.t;
  best : (int, int * Tune.result) Hashtbl.t;
  trained : (int, trained) Hashtbl.t;
  errors : (int, Stats.Error_metrics.t) Hashtbl.t;
  mutable refit : Refit.t option;
}

type read = stage:string -> count:int -> float array

type stage = {
  name : string;
  count : int;
  compute : read -> lo:int -> hi:int -> float array;
}

type outcome = { final : trained; steps : step list }

let where = "Pipeline"

let create ~config ~space ~response ~rng ~schedule ~test_points =
  let config = Config.validate config in
  let sizes, target =
    match schedule with
    | Train -> ([| config.Config.sample_size |], None)
    | Accuracy { sizes = []; _ } ->
        Obs.Error.invalid_input ~where "empty size schedule"
    | Accuracy { sizes; target_mean_pct } ->
        (Array.of_list (List.sort_uniq Int.compare sizes), Some target_mean_pct)
  in
  {
    config;
    space;
    response;
    rng;
    sizes;
    target;
    stream = config.Config.stream_refit && Option.is_some target;
    cells = Tune.cells config;
    test_points;
    streams = Hashtbl.create 8;
    winners = Hashtbl.create 8;
    best = Hashtbl.create 8;
    trained = Hashtbl.create 8;
    errors = Hashtbl.create 8;
    refit = None;
  }

let unit_size t = t.config.Config.sim_batch

let domains t =
  match t.config.Config.domains with
  | Some d -> d
  | None -> Parallel.default_domains ()

let test_points t = t.test_points
let dim t = Design.Space.dimension t.space

(* Stage names.  A run directory's unit names parse from the right, so
   the dots inside step-indexed names are safe. *)
let test_stage_name = "test"
let lhs_name step = Printf.sprintf "lhs.%d" step
let sim_name step = Printf.sprintf "sim.%d" step
let tune_name step = Printf.sprintf "tune.%d" step

(* In stream mode there is a single LHS campaign at the largest size and
   each sim stage covers only the rows new at its step. *)
let lhs_n t ~step =
  if t.stream then t.sizes.(Array.length t.sizes - 1) else t.sizes.(step)

let prev_n t ~step = if step = 0 then 0 else t.sizes.(step - 1)

let sim_count t ~step =
  if t.stream then t.sizes.(step) - prev_n t ~step else t.sizes.(step)

(* Step [step]'s candidate streams: each redraw step splits
   [lhs_candidates] streams off the generator in turn, as [best_lhs]
   does, so the steps are drawn in order whichever is asked for first. *)
let candidate_streams t ~step =
  let c = t.config.Config.lhs_candidates in
  for k = Hashtbl.length t.streams to step do
    Hashtbl.replace t.streams k (Array.init c (fun _ -> Rng.split t.rng))
  done;
  Hashtbl.find t.streams step

let candidate_points t ~step stream =
  Design.Lhs.sample (Rng.copy stream) t.space ~n:(lhs_n t ~step)

(* The arg-min every control decision takes: strict [<], so the earliest
   index wins ties. *)
let argmin scores =
  let best = ref 0 in
  for i = 1 to Array.length scores - 1 do
    if scores.(i) < scores.(!best) then best := i
  done;
  !best

let lhs_scores t read ~step =
  read ~stage:(lhs_name step) ~count:t.config.Config.lhs_candidates

let winner_points t read ~step =
  match Hashtbl.find_opt t.winners step with
  | Some points -> points
  | None ->
      let streams = candidate_streams t ~step in
      let points =
        candidate_points t ~step streams.(argmin (lhs_scores t read ~step))
      in
      Hashtbl.replace t.winners step points;
      points

let step_sample t read ~step =
  if t.stream then Array.sub (winner_points t read ~step:0) 0 t.sizes.(step)
  else winner_points t read ~step

(* The size-n responses at step [step]: one sim stage, or in stream mode
   the sim stages of every step so far. *)
let step_responses t read ~step =
  if t.stream then
    Array.concat
      (List.init (step + 1) (fun k ->
           read ~stage:(sim_name k) ~count:(sim_count t ~step:k)))
  else read ~stage:(sim_name step) ~count:(sim_count t ~step)

(* Responses at [points].  A batched response runs them through the
   shared-trace engine; otherwise each point is a task with its own
   retry budget, and points that keep failing end the stage as one
   Infeasible report. *)
let evaluate t ~stage ~lo points =
  let { Config.domains; obs; task_retries; task_deadline; sim_batch; _ } =
    t.config
  in
  match t.response.Response.eval_many with
  | Some _ when sim_batch > 1 ->
      Fault.point "sim.batch";
      Response.evaluate_many ?domains t.response points
  | Some _ | None ->
      let r0 = Parallel.retries_total () in
      let f0 = Parallel.failed_total () in
      let outcomes =
        Parallel.map_fallible ?domains ~retries:task_retries
          ?deadline:task_deadline
          (fun p ->
            Fault.point "sim.task";
            t.response.Response.eval p)
          points
      in
      Obs.count obs "pool.retries" (Parallel.retries_total () - r0);
      Obs.count obs "pool.failed_tasks" (Parallel.failed_total () - f0);
      let failed =
        List.filter_map
          (fun k ->
            match outcomes.(k) with Ok _ -> None | Error e -> Some (k, e))
          (List.init (Array.length outcomes) Fun.id)
      in
      (match failed with
      | [] -> ()
      | (k, e) :: _ ->
          Obs.Error.infeasible ~where
            (Printf.sprintf
               "%d of %d points of %s failed permanently (retry budget %d; \
                first failure at index %d: %s)"
               (List.length failed) (Array.length points) stage task_retries
               (lo + k) (Printexc.to_string e)));
      Array.map (function Ok v -> v | Error _ -> nan) outcomes

let test_stage t =
  {
    name = test_stage_name;
    count = Array.length t.test_points;
    compute =
      (fun _read ~lo ~hi ->
        Obs.with_span t.config.Config.obs "build.simulate" @@ fun () ->
        evaluate t ~stage:test_stage_name ~lo
          (Array.sub t.test_points lo (hi - lo)));
  }

let lhs_stage t ~step =
  {
    name = lhs_name step;
    count = t.config.Config.lhs_candidates;
    compute =
      (fun _read ~lo ~hi ->
        let obs = t.config.Config.obs in
        Obs.with_span obs "design.best_lhs" @@ fun () ->
        Obs.count obs "lhs.candidates" (hi - lo);
        let streams = candidate_streams t ~step in
        (* The candidate level is parallel; each discrepancy stays on
           its domain. *)
        Parallel.init ?domains:t.config.Config.domains (hi - lo) (fun k ->
            Design.Discrepancy.compute ~domains:1 Design.Discrepancy.Star
              (candidate_points t ~step streams.(lo + k))));
  }

let sim_stage t ~step =
  let name = sim_name step in
  {
    name;
    count = sim_count t ~step;
    compute =
      (fun read ~lo ~hi ->
        let sample, base =
          if t.stream then (winner_points t read ~step:0, prev_n t ~step)
          else (winner_points t read ~step, 0)
        in
        Obs.with_span t.config.Config.obs "build.simulate" @@ fun () ->
        evaluate t ~stage:name ~lo (Array.sub sample (base + lo) (hi - lo)));
  }

(* Keep the better of the cell already kept for [step] and cell [cell],
   by the arg-min's rule, so that only one selection per step stays
   resident. *)
let keep t ~step cell (result : Tune.result) =
  let pick =
    match Hashtbl.find_opt t.best step with
    | None -> (cell, result)
    | Some kept ->
        let ((_, first) as a), ((_, second) as b) =
          if fst kept < cell then (kept, (cell, result))
          else ((cell, result), kept)
        in
        if second.Tune.criterion < first.Tune.criterion then b else a
  in
  Hashtbl.replace t.best step pick

(* Fitting follows simulation, so the simulator's idle engines are freed
   first. *)
let tune_stage t ~step =
  {
    name = tune_name step;
    count = Array.length t.cells;
    compute =
      (fun read ~lo ~hi ->
        Archpred_sim.Batch.trim ();
        let results =
          Tune.evaluate ~config:t.config ~dim:(dim t)
            ~points:(step_sample t read ~step)
            ~responses:(step_responses t read ~step)
            (Array.sub t.cells lo (hi - lo))
        in
        Array.iteri (fun k r -> keep t ~step (lo + k) r) results;
        Array.map (fun r -> r.Tune.criterion) results);
  }

(* The winning cell of a redraw step: the one this process kept, or
   refitted when another process fitted it. *)
let tuned t read ~step ~points ~responses =
  let cell =
    argmin (read ~stage:(tune_name step) ~count:(Array.length t.cells))
  in
  match Hashtbl.find_opt t.best step with
  | Some (kept, result) when kept = cell -> result
  | Some _ | None ->
      (Tune.evaluate ~config:t.config ~dim:(dim t) ~points ~responses
         [| t.cells.(cell) |]).(0)

let refit t =
  match t.refit with
  | Some r -> r
  | None ->
      let r = Refit.create t.config in
      t.refit <- Some r;
      r

let rec trained_at t read ~step =
  match Hashtbl.find_opt t.trained step with
  | Some trained -> trained
  | None ->
      (* The streaming refit consumes sample prefixes strictly in order. *)
      if t.stream && step > 0 then ignore (trained_at t read ~step:(step - 1));
      Archpred_sim.Batch.trim ();
      let points = step_sample t read ~step in
      let responses = step_responses t read ~step in
      let scores = lhs_scores t read ~step:(if t.stream then 0 else step) in
      let tune =
        if t.stream then Refit.fit (refit t) ~dim:(dim t) ~points ~responses
        else tuned t read ~step ~points ~responses
      in
      Hashtbl.remove t.best step;
      let predictor =
        Predictor.make ~space:t.space
          ~network:tune.Tune.selection.Archpred_rbf.Selection.network
          ~tree:tune.Tune.tree ~p_min:tune.Tune.p_min ~alpha:tune.Tune.alpha ()
      in
      let trained =
        {
          predictor;
          sample = points;
          sample_responses = responses;
          discrepancy = scores.(argmin scores);
          criterion = tune.Tune.criterion;
          tune;
        }
      in
      Hashtbl.replace t.trained step trained;
      trained

let test_actuals t read =
  read ~stage:test_stage_name ~count:(Array.length t.test_points)

let step_error t read ~step =
  match Hashtbl.find_opt t.errors step with
  | Some e -> e
  | None ->
      let e =
        Predictor.errors_on (trained_at t read ~step).predictor
          ~points:t.test_points ~actual:(test_actuals t read)
      in
      Hashtbl.replace t.errors step e;
      e

let stop_after t read ~step =
  match t.target with
  | None -> true
  | Some target ->
      step = Array.length t.sizes - 1
      || (step_error t read ~step).Stats.Error_metrics.mean_pct <= target

let walk t ~read drive =
  if Array.length t.test_points > 0 then drive (test_stage t);
  let rec steps step =
    if (not t.stream) || step = 0 then drive (lhs_stage t ~step);
    drive (sim_stage t ~step);
    if not t.stream then drive (tune_stage t ~step);
    if not (stop_after t read ~step) then steps (step + 1)
  in
  steps 0

let assemble t read =
  let rec go acc step =
    let trained = trained_at t read ~step in
    let acc =
      match t.target with
      | None -> acc
      | Some _ ->
          let test_error = step_error t read ~step in
          { size = t.sizes.(step); trained; test_error } :: acc
    in
    if stop_after t read ~step then { final = trained; steps = List.rev acc }
    else go acc (step + 1)
  in
  go [] 0
