(* Design-space exploration: the paper's motivating use case.

     dune exec examples/design_space_exploration.exe

   An architect wants the best-performing configuration for a
   memory-intensive workload (mcf) subject to an area budget: the sum of
   cache capacities must stay below 3MB and the ROB below 100 entries.
   Exhaustive simulation of the 9-dimensional space is out of the
   question; instead we train an RBF model on ~90 simulations and run the
   search against the model (thousands of model evaluations per second),
   then verify the winner with one final simulation. *)

module Stats = Archpred_stats
module Design = Archpred_design
module Core = Archpred_core
module Workloads = Archpred_workloads

let area_budget_bytes = 3 * 1024 * 1024
let rob_budget = 100

let within_budget point =
  let v = Design.Space.decode Core.Paper_space.space point in
  let l2 = int_of_float v.(4)
  and il1 = int_of_float v.(6)
  and dl1 = int_of_float v.(7) in
  l2 + il1 + dl1 <= area_budget_bytes && int_of_float v.(1) <= rob_budget

let () =
  let benchmark = Workloads.Spec2000.mcf in

  (* Collect span timings and counters in-process; the report at the end
     shows where the time went (sampling, simulation, tuning, search). *)
  let obs = Archpred_obs.create () in
  let response =
    Core.Response.simulator ~obs ~trace_length:40_000 benchmark
  in

  let config =
    Core.Config.default
    |> Core.Config.with_seed 7
    |> Core.Config.with_sample_size 90
    |> Core.Config.with_trace_length 40_000
    |> Core.Config.with_obs obs
  in
  Printf.printf "training model for %s on 90 simulations...\n%!"
    benchmark.Workloads.Profile.name;
  let t0 = Archpred_obs.now_ns () in
  let trained =
    Core.Build.train ~config ~space:Core.Paper_space.space ~response ()
  in
  Printf.printf "trained in %.1fs\n\n%!" (Archpred_obs.seconds_since t0);

  Printf.printf "searching (budget: caches <= %dKB total, ROB <= %d)...\n%!"
    (area_budget_bytes / 1024) rob_budget;
  let t0 = Archpred_obs.now_ns () in
  let result =
    Core.Search.minimize ~config ~constraint_:within_budget
      ~predictor:trained.Core.Build.predictor ()
  in
  Printf.printf "searched %d candidate designs in %.2fs\n"
    result.Core.Search.evaluations
    (Archpred_obs.seconds_since t0);

  Format.printf "@.best feasible design:@.  %a@."
    (Design.Space.pp_point Core.Paper_space.space)
    result.Core.Search.point;
  let simulated = response.Core.Response.eval result.Core.Search.point in
  Printf.printf "predicted CPI %.4f; confirming simulation gives %.4f\n"
    result.Core.Search.predicted simulated;

  (* Contrast with the naive alternative: the best of the 90 *training*
     simulations that fits the budget. *)
  let best_sampled = ref None in
  Array.iteri
    (fun i p ->
      if within_budget p then
        let cpi = trained.Core.Build.sample_responses.(i) in
        match !best_sampled with
        | Some (_, c) when c <= cpi -> ()
        | Some _ | None -> best_sampled := Some (p, cpi))
    trained.Core.Build.sample;
  (match !best_sampled with
  | Some (_, cpi) ->
      Printf.printf
        "best feasible point among the 90 training simulations: CPI %.4f\n"
        cpi;
      Printf.printf "model-driven search %s it.\n"
        (if simulated < cpi then "beats" else "matches")
  | None -> Printf.printf "no training point fit the budget.\n");

  (* Where did the time go?  Span-tree summary plus counters. *)
  Archpred_obs.close obs;
  print_newline ();
  Archpred_obs.report obs Format.std_formatter
