module Stats = Archpred_stats
module Core = Archpred_core

type t = {
  seed : int;
  scale : Scale.t;
  obs : Archpred_obs.t;
  root : Stats.Rng.t;
  responses : (string, Core.Response.t) Hashtbl.t;
  test_points : Archpred_design.Space.point array Lazy.t;
  test_responses : (string, float array) Hashtbl.t;
  trained : (string * int, Core.Build.trained) Hashtbl.t;
}

let create ?(seed = 2006) ~scale ?(obs = Archpred_obs.null) () =
  let root = Stats.Rng.create seed in
  let test_rng = Stats.Rng.split root in
  {
    seed;
    scale;
    obs;
    root;
    responses = Hashtbl.create 8;
    test_points =
      lazy
        (Core.Paper_space.test_points test_rng ~n:(Scale.test_points scale));
    test_responses = Hashtbl.create 8;
    trained = Hashtbl.create 32;
  }

let scale t = t.scale
let seed t = t.seed
let obs t = t.obs
let rng t = Stats.Rng.split t.root

let response t (profile : Archpred_workloads.Profile.t) =
  match Hashtbl.find_opt t.responses profile.name with
  | Some r -> r
  | None ->
      let r =
        Core.Response.simulator ~obs:t.obs
          ~trace_length:(Scale.trace_length t.scale)
          ~seed:t.seed profile
      in
      Hashtbl.add t.responses profile.name r;
      r

let test_set t (profile : Archpred_workloads.Profile.t) =
  let points = Lazy.force t.test_points in
  let responses =
    match Hashtbl.find_opt t.test_responses profile.name with
    | Some r -> r
    | None ->
        let r = Core.Response.evaluate_many (response t profile) points in
        Hashtbl.add t.test_responses profile.name r;
        r
  in
  (points, responses)

let config t ~n =
  Core.Config.default
  |> Core.Config.with_rng (rng t)
  |> Core.Config.with_sample_size n
  |> Core.Config.with_lhs_candidates (Scale.lhs_candidates t.scale)
  |> Core.Config.with_trace_length (Scale.trace_length t.scale)
  |> Core.Config.with_obs t.obs

let train t (profile : Archpred_workloads.Profile.t) ~n =
  let key = (profile.name, n) in
  match Hashtbl.find_opt t.trained key with
  | Some tr -> tr
  | None ->
      let tr =
        Core.Build.train ~config:(config t ~n) ~space:Core.Paper_space.space
          ~response:(response t profile) ()
      in
      Hashtbl.add t.trained key tr;
      tr
