module Rng = Archpred_stats.Rng
module Obs = Archpred_obs

type t = {
  seed : int;
  rng : Rng.t option;
  sample_size : int;
  trace_length : int;
  domains : int option;
  criterion : Archpred_rbf.Criteria.t;
  p_min_grid : int list;
  alpha_grid : float list;
  lhs_candidates : int;
  obs : Obs.t;
  task_retries : int;
  sim_batch : int;
  nested : bool;
}

(* Table 4 of the paper finds the best leaf size is 1 or 2, and the best
   radius scale 5-12 times the region size; these grids bracket both. *)
let default_p_min_grid = [ 1; 2; 3 ]
let default_alpha_grid = [ 3.; 5.; 7.; 9.; 12. ]

let default =
  {
    seed = 42;
    rng = None;
    sample_size = 30;
    trace_length = 100_000;
    domains = None;
    criterion = Archpred_rbf.Criteria.Aicc;
    p_min_grid = default_p_min_grid;
    alpha_grid = default_alpha_grid;
    lhs_candidates = 100;
    obs = Obs.null;
    task_retries = 1;
    sim_batch = 16;
    nested = false;
  }

let with_seed seed t = { t with seed; rng = None }
let with_rng rng t = { t with rng = Some rng }
let with_sample_size sample_size t = { t with sample_size }
let with_trace_length trace_length t = { t with trace_length }
let with_domains domains t = { t with domains = Some domains }
let with_criterion criterion t = { t with criterion }
let with_p_min_grid p_min_grid t = { t with p_min_grid }
let with_alpha_grid alpha_grid t = { t with alpha_grid }
let with_lhs_candidates lhs_candidates t = { t with lhs_candidates }
let with_obs obs t = { t with obs }
let with_sim_batch sim_batch t = { t with sim_batch }
let with_nested nested t = { t with nested }
let rng_of t = match t.rng with Some rng -> rng | None -> Rng.create t.seed

let validate t =
  if t.sample_size < 1 then
    Obs.Error.invalid_input ~where:"Config" "sample_size < 1";
  if t.trace_length < 1 then
    Obs.Error.invalid_input ~where:"Config" "trace_length < 1";
  if t.lhs_candidates < 1 then
    Obs.Error.invalid_input ~where:"Config" "lhs_candidates < 1";
  if t.p_min_grid = [] then
    Obs.Error.invalid_input ~where:"Config" "empty p_min_grid";
  if t.alpha_grid = [] then
    Obs.Error.invalid_input ~where:"Config" "empty alpha_grid";
  (match t.domains with
  | Some d when d < 1 -> Obs.Error.invalid_input ~where:"Config" "domains < 1"
  | Some _ | None -> ());
  if t.task_retries < 0 then
    Obs.Error.invalid_input ~where:"Config" "task_retries < 0";
  if t.sim_batch < 1 then
    Obs.Error.invalid_input ~where:"Config" "sim_batch < 1";
  t
