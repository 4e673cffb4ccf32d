module Design = Archpred_design
module Stats = Archpred_stats
module Rng = Archpred_stats.Rng
module Parallel = Archpred_stats.Parallel
module Obs = Archpred_obs
module Core = Archpred_core
module Tree = Archpred_regtree.Tree
module Rbf = Archpred_rbf

type ctx = {
  spec : Spec.t;
  config : Core.Config.t;
  response : Core.Response.t;
  obs : Obs.t;
  domains : int;
  space : Design.Space.t;
  schedule : int array;
  stream : bool;
  cells : (int * float) array;
  test_points : Design.Space.point array;
  post_test_rng : Rng.t;
  (* Derived-value caches — everything below is a pure function of
     (spec, merged scan), cached only to avoid recomputation. *)
  winners : (int, Design.Space.point array) Hashtbl.t;
  responses_cache : (int, float array) Hashtbl.t;
  trees : (string, Tree.t) Hashtbl.t;
  selections : (int * int, Rbf.Selection.result) Hashtbl.t;
  trained_cache : (int, Core.Build.trained) Hashtbl.t;
  mutable refit : Core.Refit.t option;
}

let where = "Shard.Stages"

let create ?(obs = Obs.null) ?(domains = 1) spec =
  let spec = Spec.validate spec in
  let config = Spec.config ~obs spec in
  let response = Spec.response ~obs spec in
  let schedule =
    match spec.Spec.mode with
    | Spec.Train -> [| spec.Spec.sample_size |]
    | Spec.Accuracy { sizes; _ } ->
        Array.of_list (List.sort_uniq Int.compare sizes)
  in
  let stream =
    spec.Spec.stream_refit
    && match spec.Spec.mode with Spec.Train -> false | Spec.Accuracy _ -> true
  in
  (* Mirror the CLI's stream discipline exactly: the root generator first
     yields the held-out test points, then everything the build draws —
     the sharded run must burn the same draws to land on the same LHS
     candidate streams. *)
  let rng = Rng.create spec.Spec.seed in
  let test_points =
    if spec.Spec.test_n = 0 then [||]
    else Core.Paper_space.test_points rng ~n:spec.Spec.test_n
  in
  {
    spec;
    config;
    response;
    obs;
    domains;
    space = Core.Paper_space.space;
    schedule;
    stream;
    cells = Core.Tune.cells config;
    test_points;
    post_test_rng = rng;
    winners = Hashtbl.create 8;
    responses_cache = Hashtbl.create 8;
    trees = Hashtbl.create 16;
    selections = Hashtbl.create 16;
    trained_cache = Hashtbl.create 8;
    refit = None;
  }

let spec ctx = ctx.spec
let domains ctx = ctx.domains
let n_steps ctx = Array.length ctx.schedule
let stream ctx = ctx.stream

(* Stage names.  [Plan.unit_of_name] parses from the right, so the dots
   inside step-indexed stage names are safe. *)
let test_stage_name = "test"
let lhs_stage_name step = Printf.sprintf "lhs.%d" step
let sim_stage_name step = Printf.sprintf "sim.%d" step
let tune_stage_name step = Printf.sprintf "tune.%d" step

(* In stream mode there is a single LHS campaign at the largest size and
   each sim stage covers only the rows new at its step. *)
let lhs_n ctx ~step =
  if ctx.stream then Array.fold_left max 1 ctx.schedule
  else ctx.schedule.(step)

let prev_n ctx ~step = if step = 0 then 0 else ctx.schedule.(step - 1)

let sim_count ctx ~step =
  if ctx.stream then ctx.schedule.(step) - prev_n ctx ~step
  else ctx.schedule.(step)

(* Candidate [candidate] of step [step] owns the same generator stream
   {!Archpred_design.Optimize.best_lhs} would hand it: the root rng is
   advanced by one split per already-scored candidate, and the stream is
   the next split. *)
let candidate_stream ctx ~step ~candidate =
  let rng = Rng.copy ctx.post_test_rng in
  let skip = (step * ctx.spec.Spec.lhs_candidates) + candidate in
  for _ = 1 to skip do
    ignore (Rng.split rng)
  done;
  Rng.split rng

let candidate_points ctx ~step ~candidate =
  let stream = candidate_stream ctx ~step ~candidate in
  Design.Lhs.sample stream ctx.space ~n:(lhs_n ctx ~step)

let eval_lhs ctx ~step candidate =
  let points = candidate_points ctx ~step ~candidate in
  Design.Discrepancy.compute ~domains:1 Design.Discrepancy.Star points

(* The winning candidate, exactly as [best_lhs] picks it: strict-[<]
   arg-min over the scored discrepancies, earliest candidate on ties. *)
let argmin scores =
  let best = ref 0 in
  for i = 1 to Array.length scores - 1 do
    if scores.(i) < scores.(!best) then best := i
  done;
  !best

let lhs_scores ctx scan ~step =
  Journal.stage_values scan ~stage:(lhs_stage_name step)
    ~count:ctx.spec.Spec.lhs_candidates

let winner_points ctx scan ~step =
  match Hashtbl.find_opt ctx.winners step with
  | Some points -> points
  | None ->
      let winner = argmin (lhs_scores ctx scan ~step) in
      let points = candidate_points ctx ~step ~candidate:winner in
      Hashtbl.replace ctx.winners step points;
      points

let sim_point ctx scan ~step ~index =
  if ctx.stream then (winner_points ctx scan ~step:0).(prev_n ctx ~step + index)
  else (winner_points ctx scan ~step).(index)

(* A whole claimed unit of design points through the batched evaluator
   (trace decoded once per unit, bit-identical to the pointwise path). *)
let eval_sim_unit ctx scan ~step ~lo ~hi =
  let points =
    Array.init (hi - lo) (fun k -> sim_point ctx scan ~step ~index:(lo + k))
  in
  Core.Response.evaluate_many ~domains:ctx.domains ctx.response points

(* The size-n response prefix at step [step], assembled from the merged
   sim stages (one stage per step in stream mode, one per size
   otherwise). *)
let step_responses ctx scan ~step =
  match Hashtbl.find_opt ctx.responses_cache step with
  | Some r -> r
  | None ->
      let r =
        if ctx.stream then (
          let n = ctx.schedule.(step) in
          let out = Array.make n nan in
          for k = 0 to step do
            let base = prev_n ctx ~step:k in
            let chunk =
              Journal.stage_values scan ~stage:(sim_stage_name k)
                ~count:(sim_count ctx ~step:k)
            in
            Array.blit chunk 0 out base (Array.length chunk)
          done;
          out)
        else
          Journal.stage_values scan ~stage:(sim_stage_name step)
            ~count:(sim_count ctx ~step)
      in
      Hashtbl.replace ctx.responses_cache step r;
      r

let tree_at ctx ~step ~p_min ~points ~responses =
  let key = Printf.sprintf "%d:%d" step p_min in
  match Hashtbl.find_opt ctx.trees key with
  | Some tree -> tree
  | None ->
      let tree =
        Tree.build ~obs:ctx.obs ~p_min
          ~dim:(Design.Space.dimension ctx.space)
          ~points ~responses ()
      in
      Hashtbl.replace ctx.trees key tree;
      tree

let step_sample ctx scan ~step =
  if ctx.stream then
    Array.sub (winner_points ctx scan ~step:0) 0 ctx.schedule.(step)
  else winner_points ctx scan ~step

let select ctx ~tree ~points ~responses ~alpha =
  Core.Tune.eval_cell ~obs:ctx.obs ~criterion:ctx.spec.Spec.criterion ~tree
    ~points ~responses ~alpha ()

(* Fitting follows simulation, so the simulator's idle engines are freed
   first, as [Build] frees them.  The ctx caches are not thread-safe, so
   the sample, its responses and every p_min tree the unit needs are
   built before the cells fan out, and the selections are cached (for
   reassembly in this process) after it. *)
let eval_tune_unit ctx scan ~step ~lo ~hi =
  Archpred_sim.Batch.trim ();
  let points = step_sample ctx scan ~step in
  let responses = step_responses ctx scan ~step in
  let trees =
    Array.init (hi - lo) (fun k ->
        let p_min, _ = ctx.cells.(lo + k) in
        tree_at ctx ~step ~p_min ~points ~responses)
  in
  let selections =
    Parallel.init ~domains:ctx.domains (hi - lo) (fun k ->
        let _, alpha = ctx.cells.(lo + k) in
        select ctx ~tree:trees.(k) ~points ~responses ~alpha)
  in
  Array.mapi
    (fun k selection ->
      Hashtbl.replace ctx.selections (step, lo + k) selection;
      selection.Rbf.Selection.criterion)
    selections

let tune_count ctx = Array.length ctx.cells

(* Reassemble the trained model of step [step] from the merged scan —
   the same record [Build.train] (or the streaming schedule) would have
   produced, recomputed rather than journaled because every piece is a
   deterministic function of values the journals do carry. *)
let rec trained_at ctx scan ~step =
  match Hashtbl.find_opt ctx.trained_cache step with
  | Some t -> t
  | None ->
      (* The streaming refit consumes sample prefixes strictly in order;
         make sure every earlier step has been fed first. *)
      if ctx.stream && step > 0 then
        ignore (trained_at ctx scan ~step:(step - 1));
      let points = step_sample ctx scan ~step in
      let responses = step_responses ctx scan ~step in
      let discrepancy =
        let scores = lhs_scores ctx scan ~step:(if ctx.stream then 0 else step) in
        scores.(argmin scores)
      in
      let tune =
        if ctx.stream then (
          let refit =
            match ctx.refit with
            | Some r -> r
            | None ->
                let r = Core.Refit.create ctx.config in
                ctx.refit <- Some r;
                r
          in
          Core.Refit.fit refit
            ~dim:(Design.Space.dimension ctx.space)
            ~points ~responses)
        else
          let scores =
            Journal.stage_values scan ~stage:(tune_stage_name step)
              ~count:(tune_count ctx)
          in
          let cell = argmin scores in
          let p_min, alpha = ctx.cells.(cell) in
          let tree = tree_at ctx ~step ~p_min ~points ~responses in
          let selection =
            match Hashtbl.find_opt ctx.selections (step, cell) with
            | Some selection -> selection
            | None -> select ctx ~tree ~points ~responses ~alpha
          in
          {
            Core.Tune.p_min;
            alpha;
            criterion = selection.Rbf.Selection.criterion;
            tree;
            selection;
          }
      in
      let predictor =
        Core.Predictor.make ~space:ctx.space
          ~network:tune.Core.Tune.selection.Rbf.Selection.network
          ~tree:tune.Core.Tune.tree ~p_min:tune.Core.Tune.p_min
          ~alpha:tune.Core.Tune.alpha ()
      in
      let trained =
        {
          Core.Build.predictor;
          sample = points;
          sample_responses = responses;
          discrepancy;
          criterion = tune.Core.Tune.criterion;
          tune;
        }
      in
      Hashtbl.replace ctx.trained_cache step trained;
      trained

let test_actuals ctx scan =
  Journal.stage_values scan ~stage:test_stage_name ~count:ctx.spec.Spec.test_n

let test_points ctx = ctx.test_points

let step_error ctx scan ~step =
  let trained = trained_at ctx scan ~step in
  Core.Predictor.errors_on trained.Core.Build.predictor ~points:ctx.test_points
    ~actual:(test_actuals ctx scan)

let stop_after ctx scan ~step =
  match ctx.spec.Spec.mode with
  | Spec.Train -> true
  | Spec.Accuracy { target_mean_pct; _ } ->
      step = n_steps ctx - 1
      || (step_error ctx scan ~step).Stats.Error_metrics.mean_pct
         <= target_mean_pct

type outcome = {
  final : Core.Build.trained;
  steps : Core.Build.step list;
}

let assemble ctx scan =
  Archpred_sim.Batch.trim ();
  match ctx.spec.Spec.mode with
  | Spec.Train -> { final = trained_at ctx scan ~step:0; steps = [] }
  | Spec.Accuracy _ ->
      let rec go acc step =
        let trained = trained_at ctx scan ~step in
        let test_error = step_error ctx scan ~step in
        let s = { Core.Build.size = ctx.schedule.(step); trained; test_error } in
        let acc = s :: acc in
        if stop_after ctx scan ~step then
          { final = trained; steps = List.rev acc }
        else go acc (step + 1)
      in
      go [] 0

(* {2 Worker-facing stage descriptors} *)

type stage = {
  name : string;
  count : int;
  compute : Journal.scan -> lo:int -> hi:int -> float array;
}

let test_stage ctx =
  if ctx.spec.Spec.test_n = 0 then None
  else
    Some
      {
        name = test_stage_name;
        count = ctx.spec.Spec.test_n;
        compute =
          (fun _scan ~lo ~hi ->
            Core.Response.evaluate_many ~domains:ctx.domains ctx.response
              (Array.sub ctx.test_points lo (hi - lo)));
      }

let lhs_stage ctx ~step =
  if ctx.stream && step > 0 then
    Obs.Error.invalid_input ~where "stream mode has a single LHS stage";
  {
    name = lhs_stage_name step;
    count = ctx.spec.Spec.lhs_candidates;
    compute =
      (fun _scan ~lo ~hi ->
        Parallel.init ~domains:ctx.domains (hi - lo) (fun k ->
            eval_lhs ctx ~step (lo + k)));
  }

let sim_stage ctx ~step =
  {
    name = sim_stage_name step;
    count = sim_count ctx ~step;
    compute = (fun scan ~lo ~hi -> eval_sim_unit ctx scan ~step ~lo ~hi);
  }

let tune_stage ctx ~step =
  if ctx.stream then None
  else
    Some
      {
        name = tune_stage_name step;
        count = tune_count ctx;
        compute = eval_tune_unit ctx ~step;
      }
