(* Tests for archpred.core: the paper's design space, responses, model
   tuning, the BuildRBFmodel procedure, predictors, trend sweeps and
   model-driven search.  Simulator-backed cases use short traces. *)

module Design = Archpred_design
module Core = Archpred_core
module Paper_space = Core.Paper_space
module Response = Core.Response
module Build = Core.Build
module Tune = Core.Tune
module Config = Core.Config
module Predictor = Core.Predictor
module Trend = Core.Trend
module Search = Core.Search
module Sim = Archpred_sim
module Rng = Archpred_stats.Rng

let qtest ?(count = 50) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ---------- Paper_space ---------- *)

let test_space_dimension () =
  Alcotest.(check int) "nine parameters" 9 Paper_space.dim;
  Alcotest.(check int) "names" 9 (Array.length Paper_space.param_names)

let test_space_corner_configs_valid () =
  (* both extreme corners decode into valid simulator configurations *)
  List.iter
    (fun u ->
      let point = Array.make 9 u in
      let cfg = Paper_space.to_config point in
      match Sim.Config.validate cfg with
      | Ok () -> ()
      | Error m -> Alcotest.failf "corner %g invalid: %s" u m)
    [ 0.; 1. ]

let test_space_decoding_ranges () =
  let lo = Design.Space.decode Paper_space.space (Array.make 9 0.) in
  let hi = Design.Space.decode Paper_space.space (Array.make 9 1.) in
  Alcotest.(check (float 0.)) "pipe_depth low" 24. lo.(0);
  Alcotest.(check (float 0.)) "pipe_depth high" 7. hi.(0);
  Alcotest.(check (float 0.)) "rob low" 24. lo.(1);
  Alcotest.(check (float 0.)) "rob high" 128. hi.(1);
  Alcotest.(check (float 1.)) "l2 low 256KB" 262144. lo.(4);
  Alcotest.(check (float 1.)) "l2 high 8MB" 8388608. hi.(4)

let test_iq_lsq_scale_with_rob () =
  let point = Array.make 9 0.5 in
  point.(1) <- 1. (* rob = 128 *);
  point.(2) <- 0. (* iq ratio = 0.25 *);
  let cfg = Paper_space.to_config point in
  Alcotest.(check int) "iq = 0.25 * 128" 32 cfg.Sim.Config.iq_size

let test_test_box_inside_cube () =
  (* validate_point raises for a point outside the unit cube *)
  Design.Space.validate_point Paper_space.space Paper_space.test_lo;
  Design.Space.validate_point Paper_space.space Paper_space.test_hi

let prop_random_points_give_valid_configs =
  qtest "any cube point decodes to a valid config"
    QCheck2.Gen.(array_size (return 9) (float_range 0. 1.))
    (fun point ->
      Sim.Config.validate (Paper_space.to_config point) = Ok ())

let test_test_points_in_box () =
  let rng = Rng.create 1 in
  let pts = Paper_space.test_points rng ~n:40 in
  Array.iter
    (fun p ->
      Array.iteri
        (fun k u ->
          let a = Float.min Paper_space.test_lo.(k) Paper_space.test_hi.(k) in
          let b = Float.max Paper_space.test_lo.(k) Paper_space.test_hi.(k) in
          if u < a -. 1e-9 || u > b +. 1e-9 then
            Alcotest.failf "coordinate %d out of test box" k)
        p)
    pts

(* ---------- Response ---------- *)

let test_synthetic_responses () =
  let r = Response.synthetic_smooth ~dim:9 in
  let v = r.Response.eval (Array.make 9 0.5) in
  Alcotest.(check bool) "positive" true (v > 0.);
  let cliff = Response.synthetic_cliff ~dim:9 in
  let low = cliff.Response.eval (Array.init 9 (fun k -> if k = 0 then 0.2 else 0.5)) in
  let high = cliff.Response.eval (Array.init 9 (fun k -> if k = 0 then 0.8 else 0.5)) in
  Alcotest.(check bool) "cliff" true (low -. high > 2.)

let test_simulator_response_deterministic () =
  let r = Response.simulator ~trace_length:3_000 Archpred_workloads.Spec2000.crafty in
  let p = Array.make 9 0.5 in
  Alcotest.(check (float 1e-12)) "memoised/deterministic"
    (r.Response.eval p) (r.Response.eval p)

let test_evaluate_many_matches_eval () =
  let r = Response.synthetic_smooth ~dim:9 in
  let rng = Rng.create 5 in
  let pts = Array.init 16 (fun _ -> Array.init 9 (fun _ -> Rng.unit_float rng)) in
  let batch = Response.evaluate_many ~domains:4 r pts in
  Array.iteri
    (fun i p ->
      Alcotest.(check (float 1e-12)) "batch = pointwise" (r.Response.eval p) batch.(i))
    pts

let test_simulator_parallel_consistent () =
  let r = Response.simulator ~trace_length:2_000 Archpred_workloads.Spec2000.parser in
  let rng = Rng.create 6 in
  let pts = Array.init 8 (fun _ -> Array.init 9 (fun _ -> Rng.unit_float rng)) in
  let batch = Response.evaluate_many ~domains:4 r pts in
  let seq = Array.map r.Response.eval pts in
  Array.iteri
    (fun i v -> Alcotest.(check (float 1e-12)) "parallel = serial" v batch.(i))
    seq

(* ---------- Tune / Build on synthetic surfaces ---------- *)

let synthetic_sample rng n =
  let r = Response.synthetic_smooth ~dim:9 in
  let pts = Design.Lhs.sample rng Paper_space.space ~n in
  (pts, Array.map r.Response.eval pts)

let test_tune_returns_grid_values () =
  let rng = Rng.create 7 in
  let points, responses = synthetic_sample rng 40 in
  let result =
    Tune.tune
      ~config:
        (Config.default
        |> Config.with_p_min_grid [ 1; 2 ]
        |> Config.with_alpha_grid [ 5.; 9. ])
      ~dim:9 ~points ~responses ()
  in
  Alcotest.(check bool) "p_min from grid" true
    (List.mem result.Tune.p_min [ 1; 2 ]);
  Alcotest.(check bool) "alpha from grid" true
    (List.mem result.Tune.alpha [ 5.; 9. ]);
  Alcotest.(check bool) "criterion finite" true
    (Float.is_finite result.Tune.criterion)

let test_build_train_accurate_on_synthetic () =
  let rng = Rng.create 8 in
  let response = Response.synthetic_smooth ~dim:9 in
  let trained =
    Build.train
      ~config:
        (Config.default |> Config.with_rng rng
        |> Config.with_lhs_candidates 20
        |> Config.with_sample_size 60)
      ~space:Paper_space.space ~response ()
  in
  let test = Paper_space.test_points rng ~n:30 in
  let actual = Array.map response.Response.eval test in
  let err = Predictor.errors_on trained.Build.predictor ~points:test ~actual in
  Alcotest.(check bool) "mean error < 3%" true
    (err.Archpred_stats.Error_metrics.mean_pct < 3.)

let test_build_beats_linear_on_cliff () =
  (* the shape claim behind Figure 7, on a synthetic cliff *)
  let rng = Rng.create 9 in
  let response = Response.synthetic_cliff ~dim:9 in
  let trained =
    Build.train
      ~config:
        (Config.default |> Config.with_rng rng
        |> Config.with_lhs_candidates 20
        |> Config.with_sample_size 80)
      ~space:Paper_space.space ~response ()
  in
  let linear =
    Archpred_linreg.Model.stepwise ~points:trained.Build.sample
      ~responses:trained.Build.sample_responses ()
  in
  let test = Paper_space.test_points rng ~n:40 in
  let actual = Array.map response.Response.eval test in
  let rbf_err = Predictor.errors_on trained.Build.predictor ~points:test ~actual in
  let lin_pred = Array.map (Archpred_linreg.Model.predict linear) test in
  let lin_err =
    Archpred_stats.Error_metrics.evaluate ~actual ~predicted:lin_pred
  in
  Alcotest.(check bool) "rbf < linear" true
    (rbf_err.Archpred_stats.Error_metrics.mean_pct
    < lin_err.Archpred_stats.Error_metrics.mean_pct)

let test_build_to_accuracy_stops_early () =
  let rng = Rng.create 10 in
  let response = Response.synthetic_smooth ~dim:9 in
  let test = Paper_space.test_points rng ~n:20 in
  let actual = Array.map response.Response.eval test in
  let history =
    Build.build_to_accuracy
      ~config:
        (Config.default |> Config.with_rng rng |> Config.with_lhs_candidates 10)
      ~space:Paper_space.space ~response ~sizes:[ 40; 60; 80 ]
      ~test_points:test ~test_responses:actual ~target_mean_pct:50. ()
  in
  (* a 50% target is trivially met at the first size *)
  Alcotest.(check int) "one step" 1 (List.length history.Build.steps);
  Alcotest.(check int) "size 40" 40 history.Build.final.Build.size

let test_build_to_accuracy_exhausts_schedule () =
  let rng = Rng.create 11 in
  let response = Response.synthetic_cliff ~dim:9 in
  let test = Paper_space.test_points rng ~n:20 in
  let actual = Array.map response.Response.eval test in
  let history =
    Build.build_to_accuracy
      ~config:
        (Config.default |> Config.with_rng rng |> Config.with_lhs_candidates 5)
      ~space:Paper_space.space ~response ~sizes:[ 30; 50 ] ~test_points:test
      ~test_responses:actual ~target_mean_pct:0.0001 ()
  in
  Alcotest.(check int) "both steps" 2 (List.length history.Build.steps)

(* The nested schedule grows one sample, and each size is tuned from
   scratch: every step's model is the one a fresh [Tune.tune] fits to
   that step's sample, and every step's sample is a prefix of the last. *)
let test_build_to_accuracy_nested_tunes_from_scratch () =
  let rng = Rng.create 15 in
  let response = Response.synthetic_cliff ~dim:9 in
  let test = Paper_space.test_points rng ~n:10 in
  let actual = Array.map response.Response.eval test in
  let config =
    Config.default |> Config.with_rng rng |> Config.with_lhs_candidates 5
    |> Config.with_nested true
  in
  let history =
    Build.build_to_accuracy ~config ~space:Paper_space.space ~response
      ~sizes:[ 8; 12; 16 ] ~test_points:test ~test_responses:actual
      ~target_mean_pct:0. ()
  in
  let last = history.Build.final.Build.trained.Build.sample in
  Alcotest.(check (list int))
    "every size built" [ 8; 12; 16 ]
    (List.map (fun (s : Build.step) -> s.Build.size) history.Build.steps);
  List.iter
    (fun (s : Build.step) ->
      let trained = s.Build.trained in
      let points = trained.Build.sample in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d sample is a prefix" s.Build.size)
        true
        (points = Array.sub last 0 s.Build.size);
      let tune =
        Tune.tune ~config ~dim:Paper_space.dim ~points
          ~responses:trained.Build.sample_responses ()
      in
      let fresh =
        Predictor.make ~space:Paper_space.space
          ~network:tune.Tune.selection.Archpred_rbf.Selection.network
          ~tree:tune.Tune.tree ~p_min:tune.Tune.p_min ~alpha:tune.Tune.alpha ()
      in
      Alcotest.(check string)
        (Printf.sprintf "n=%d model = from-scratch tune" s.Build.size)
        (Core.Persist.to_string fresh)
        (Core.Persist.to_string trained.Build.predictor))
    history.Build.steps

(* The paper's shape claim on a simulated benchmark at reduced scale:
   along the size schedule the mean test error does not rise by more
   than a tenth from one size to the next.  The seed was fixed before
   the first run. *)
let test_build_to_accuracy_error_falls_on_mcf () =
  let response =
    Response.simulator ~trace_length:5_000 Archpred_workloads.Spec2000.mcf
  in
  let rng = Rng.create 2006 in
  let test = Paper_space.test_points rng ~n:50 in
  let actual = Response.evaluate_many response test in
  let history =
    Build.build_to_accuracy
      ~config:
        (Config.default |> Config.with_rng rng |> Config.with_lhs_candidates 20)
      ~space:Paper_space.space ~response ~sizes:[ 20; 40; 80 ] ~test_points:test
      ~test_responses:actual ~target_mean_pct:0. ()
  in
  let errors =
    List.map
      (fun (s : Build.step) ->
        (s.Build.size, s.Build.test_error.Archpred_stats.Error_metrics.mean_pct))
      history.Build.steps
  in
  Alcotest.(check (list int)) "every size built" [ 20; 40; 80 ] (List.map fst errors);
  ignore
    (List.fold_left
       (fun (n0, e0) (n, e) ->
         if e > 1.10 *. e0 then
           Alcotest.failf "mean error rose from %.2f%% at n=%d to %.2f%% at n=%d"
             e0 n0 e n;
         (n, e))
       (List.hd errors) (List.tl errors))

(* ---------- Predictor ---------- *)

let trained_synthetic () =
  let rng = Rng.create 12 in
  let response = Response.synthetic_smooth ~dim:9 in
  Build.train
    ~config:
      (Config.default |> Config.with_rng rng
      |> Config.with_lhs_candidates 10
      |> Config.with_sample_size 50)
    ~space:Paper_space.space ~response ()

let test_predictor_natural_units () =
  let trained = trained_synthetic () in
  let p = trained.Build.predictor in
  let natural = [| 12.; 96.; 0.5; 0.5; 4194304.; 9.; 32768.; 32768.; 2. |] in
  let u = Design.Space.encode Paper_space.space natural in
  Alcotest.(check (float 1e-9)) "natural = encoded"
    (Predictor.predict p u)
    (Predictor.predict_natural p natural)

let test_predictor_rejects_outside () =
  let trained = trained_synthetic () in
  Alcotest.check_raises "outside cube"
    (Invalid_argument "Space: point outside unit cube") (fun () ->
      ignore (Predictor.predict trained.Build.predictor (Array.make 9 1.5)))

(* ---------- Trend ---------- *)

let test_trend_shapes () =
  let trained = trained_synthetic () in
  let base = Array.make 9 0.5 in
  let series =
    Trend.sweep ~predictor:trained.Build.predictor ~base ~dim1:6 ~steps1:3
      ~dim2:5 ~steps2:5 ()
  in
  Alcotest.(check int) "rows" 3 (Array.length series);
  Array.iter
    (fun (s : Trend.series) ->
      Alcotest.(check int) "cols" 5 (Array.length s.Trend.predicted);
      Alcotest.(check bool) "no simulation requested" true
        (s.Trend.simulated = None))
    series

let test_trend_with_simulation () =
  let trained = trained_synthetic () in
  let response = Response.synthetic_smooth ~dim:9 in
  let base = Array.make 9 0.5 in
  let series =
    Trend.sweep ~simulate:response ~predictor:trained.Build.predictor ~base
      ~dim1:0 ~steps1:2 ~dim2:1 ~steps2:3 ()
  in
  Array.iter
    (fun (s : Trend.series) ->
      match s.Trend.simulated with
      | Some sim -> Alcotest.(check int) "sim cols" 3 (Array.length sim)
      | None -> Alcotest.fail "expected simulated values")
    series

(* ---------- Search ---------- *)

let test_search_finds_low_corner () =
  (* synthetic_smooth decreases in x0 (exp(-2a)) and increases in x1;
     the minimiser should push x0 high and x1 low *)
  let rng = Rng.create 13 in
  let trained = trained_synthetic () in
  let result =
    Search.minimize
      ~config:(Config.with_rng rng Config.default)
      ~scan:500 ~predictor:trained.Build.predictor ()
  in
  Alcotest.(check bool) "x0 pushed high" true (result.Search.point.(0) > 0.6);
  Alcotest.(check bool) "x1 pushed low" true (result.Search.point.(1) < 0.4);
  Alcotest.(check bool) "evaluations counted" true (result.Search.evaluations >= 500)

let test_search_respects_constraint () =
  let rng = Rng.create 14 in
  let trained = trained_synthetic () in
  let constraint_ p = p.(0) <= 0.5 in
  let result =
    Search.minimize
      ~config:(Config.with_rng rng Config.default)
      ~scan:500 ~constraint_ ~predictor:trained.Build.predictor ()
  in
  Alcotest.(check bool) "constraint held" true (result.Search.point.(0) <= 0.5)

let test_search_infeasible () =
  let rng = Rng.create 15 in
  let trained = trained_synthetic () in
  Alcotest.check_raises "no feasible point"
    (Core.Error.Archpred
       (Core.Error.Infeasible
          { where = "Search.minimize"; what = "no feasible point found in scan" }))
    (fun () ->
      ignore
        (Search.minimize
           ~config:(Config.with_rng rng Config.default)
           ~scan:10
           ~constraint_:(fun _ -> false)
           ~predictor:trained.Build.predictor ()))

(* ---------- integration: simulator-backed model ---------- *)

let test_end_to_end_simulator_model () =
  let rng = Rng.create 16 in
  let response =
    Response.simulator ~trace_length:5_000 Archpred_workloads.Spec2000.crafty
  in
  let trained =
    Build.train
      ~config:
        (Config.default |> Config.with_rng rng
        |> Config.with_lhs_candidates 10
        |> Config.with_p_min_grid [ 1 ]
        |> Config.with_alpha_grid [ 7. ]
        |> Config.with_sample_size 30)
      ~space:Paper_space.space ~response ()
  in
  let test = Paper_space.test_points rng ~n:10 in
  let actual = Response.evaluate_many response test in
  let err = Predictor.errors_on trained.Build.predictor ~points:test ~actual in
  (* a crude model from 30 tiny simulations: just require sane errors *)
  Alcotest.(check bool) "mean error bounded" true
    (err.Archpred_stats.Error_metrics.mean_pct < 60.);
  Alcotest.(check bool) "predictions positive" true
    (Array.for_all
       (fun p -> Predictor.predict trained.Build.predictor p > 0.)
       test)


(* ---------- Crossval ---------- *)

let test_crossval_perfect_model () =
  (* a trainer that returns the true function: zero CV error *)
  let rng = Rng.create 20 in
  let f p = 2. +. p.(0) in
  let points =
    Array.init 25 (fun _ -> Array.init 9 (fun _ -> Rng.unit_float rng))
  in
  let responses = Array.map f points in
  let cv =
    Core.Crossval.k_fold ~k:5 ~rng
      ~train:(fun ~points:_ ~responses:_ held -> Array.map f held)
      ~points ~responses ()
  in
  Alcotest.(check (float 1e-9)) "zero error" 0. cv.Core.Crossval.mean_pct

let test_crossval_rbf_trainer () =
  let rng = Rng.create 21 in
  let response = Response.synthetic_smooth ~dim:9 in
  let points = Design.Lhs.sample rng Paper_space.space ~n:50 in
  let responses = Array.map response.Response.eval points in
  let cv =
    Core.Crossval.k_fold ~k:5 ~rng
      ~train:(fun ~points ~responses p ->
        (Core.Crossval.rbf_trainer ~dim:9 ()) ~points ~responses p)
      ~points ~responses ()
  in
  Alcotest.(check bool) "smooth surface CV error < 10%" true
    (cv.Core.Crossval.mean_pct < 10.);
  Alcotest.(check int) "residual per point" 50
    (Array.length cv.Core.Crossval.residuals)

let test_crossval_too_few_points () =
  let rng = Rng.create 22 in
  Alcotest.check_raises "n < k"
    (Core.Error.Archpred
       (Core.Error.Invalid_input
          { where = "Crossval.k_fold"; what = "fewer points than folds" }))
    (fun () ->
      ignore
        (Core.Crossval.k_fold ~k:5 ~rng
           ~train:(fun ~points:_ ~responses:_ held ->
             Array.map (fun _ -> 0.) held)
           ~points:[| [| 0.5 |] |] ~responses:[| 1. |] ()))

(* ---------- Adaptive ---------- *)

let test_adaptive_budget_accounting () =
  let rng = Rng.create 23 in
  let response = Response.synthetic_smooth ~dim:9 in
  let r =
    Core.Adaptive.run ~initial:15 ~batch:5 ~rounds:2 ~pool:50 ~rng
      ~space:Paper_space.space ~response ()
  in
  Alcotest.(check int) "budget = initial + rounds*batch" 25
    r.Core.Adaptive.total_simulations;
  Alcotest.(check int) "one step per round + final" 3
    (List.length r.Core.Adaptive.steps);
  Alcotest.(check int) "sample recorded" 25
    (Array.length r.Core.Adaptive.trained.Build.sample)

let test_adaptive_model_usable () =
  let rng = Rng.create 24 in
  let response = Response.synthetic_smooth ~dim:9 in
  let r =
    Core.Adaptive.run ~initial:20 ~batch:8 ~rounds:2 ~pool:100 ~rng
      ~space:Paper_space.space ~response ()
  in
  let test = Paper_space.test_points rng ~n:20 in
  let actual = Array.map response.Response.eval test in
  let err =
    Predictor.errors_on r.Core.Adaptive.trained.Build.predictor ~points:test
      ~actual
  in
  Alcotest.(check bool) "reasonable accuracy" true
    (err.Archpred_stats.Error_metrics.mean_pct < 10.)

(* ---------- Persist ---------- *)

let test_persist_roundtrip () =
  let trained = trained_synthetic () in
  let text = Core.Persist.to_string trained.Build.predictor in
  let loaded = Core.Persist.of_string text in
  Alcotest.(check bool) "no tree" true (loaded.Predictor.tree = None);
  Alcotest.(check int) "p_min" trained.Build.predictor.Predictor.p_min
    loaded.Predictor.p_min;
  (* predictions agree exactly *)
  let rng = Rng.create 25 in
  for _ = 1 to 20 do
    let p = Array.init 9 (fun _ -> Rng.unit_float rng) in
    Alcotest.(check (float 1e-12)) "same prediction"
      (Predictor.predict trained.Build.predictor p)
      (Predictor.predict loaded p)
  done

let test_persist_file_roundtrip () =
  let trained = trained_synthetic () in
  let path = Filename.temp_file "archpred" ".model" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Core.Persist.save trained.Build.predictor path;
      let loaded = Core.Persist.load path in
      let p = Array.make 9 0.25 in
      Alcotest.(check (float 1e-12)) "file roundtrip"
        (Predictor.predict trained.Build.predictor p)
        (Predictor.predict loaded p))

let test_persist_rejects_garbage () =
  Alcotest.(check bool) "garbage fails" true
    (match Core.Persist.of_string "not a model\n" with
    | exception Core.Error.Archpred (Core.Error.Parse_error _) -> true
    | _ -> false)

let test_persist_rejects_truncated () =
  let trained = trained_synthetic () in
  let text = Core.Persist.to_string trained.Build.predictor in
  let truncated = String.sub text 0 (String.length text / 2) in
  Alcotest.(check bool) "truncated fails" true
    (match Core.Persist.of_string truncated with
    | exception Core.Error.Archpred (Core.Error.Parse_error _) -> true
    | _ -> false)

(* ---------- batched prediction ---------- *)

let check_bits msg expected actual =
  if
    not
      (Int64.equal (Int64.bits_of_float expected) (Int64.bits_of_float actual))
  then Alcotest.failf "%s: scalar %h <> batch %h" msg expected actual

let test_predict_batch_bit_identical () =
  (* models trained at 1 and 4 domains, plus a Persist round-trip of
     each: the packed kernel rebuilt at load time must replay the
     scalar path exactly, at every batch size *)
  let train domains =
    Build.train
      ~config:
        (Config.default
        |> Config.with_rng (Rng.create 12)
        |> Config.with_lhs_candidates 10
        |> Config.with_domains domains
        |> Config.with_sample_size 50)
      ~space:Paper_space.space
      ~response:(Response.synthetic_smooth ~dim:9)
      ()
  in
  let d1 = (train 1).Build.predictor and d4 = (train 4).Build.predictor in
  let models =
    [
      ("domains=1", d1);
      ("domains=4", d4);
      ("persisted d1", Core.Persist.of_string (Core.Persist.to_string d1));
      ("persisted d4", Core.Persist.of_string (Core.Persist.to_string d4));
    ]
  in
  let rng = Rng.create 31 in
  List.iter
    (fun (name, p) ->
      List.iter
        (fun n ->
          let pts =
            Array.init n (fun _ -> Array.init 9 (fun _ -> Rng.unit_float rng))
          in
          let batch = Predictor.predict_batch p pts in
          Alcotest.(check int) "one output per point" n (Array.length batch);
          Array.iteri
            (fun i q ->
              check_bits
                (Printf.sprintf "%s n=%d i=%d" name n i)
                (Predictor.predict p q) batch.(i))
            pts)
        [ 1; 7; 64; 256 ])
    models

let test_predict_batch_validates () =
  (* same contract as the scalar path: every point is validated *)
  let trained = trained_synthetic () in
  Alcotest.check_raises "arity mismatch rejected"
    (Invalid_argument "Space: point arity mismatch") (fun () ->
      ignore
        (Predictor.predict_batch trained.Build.predictor [| [| 0.5; 0.5 |] |]))

let test_errors_on_matches_scalar () =
  let trained = trained_synthetic () in
  let p = trained.Build.predictor in
  let rng = Rng.create 44 in
  let points =
    Array.init 30 (fun _ -> Array.init 9 (fun _ -> Rng.unit_float rng))
  in
  let actual = Array.init 30 (fun _ -> 1. +. Rng.unit_float rng) in
  let batched = Predictor.errors_on p ~points ~actual in
  let predicted = Array.map (Predictor.predict p) points in
  let scalar =
    Archpred_stats.Error_metrics.evaluate ~actual ~predicted
  in
  Alcotest.(check (float 0.)) "same mean_pct"
    scalar.Archpred_stats.Error_metrics.mean_pct
    batched.Archpred_stats.Error_metrics.mean_pct

(* ---------- memo cache ---------- *)

module Memo = Core.Memo

let grid_sample_size = 10

let grid_point u =
  Design.Space.snap Paper_space.space ~sample_size:grid_sample_size
    (Array.make 9 u)

(* A one-point batch: [Some] cached value on a hit, [None] otherwise. *)
let probe cache p =
  let out = [| Float.nan |] and miss = [| 0 |] in
  if Memo.probe_batch cache [| p |] ~out ~miss = 0 then Some out.(0) else None

let hit name cache p expect =
  Alcotest.(check (option (float 0.))) name (Some expect) (probe cache p)

(* A miss, then [v] committed as the point's value. *)
let miss name cache p v =
  Alcotest.(check (option (float 0.))) name None (probe cache p);
  Memo.commit cache [| v |]

let test_memo_trace () =
  (* hand-computed trace against a capacity-2 cache:
       miss A, hit A, miss B, miss C (evicts A), miss A, hit B, hit C *)
  let cache =
    Memo.create ~capacity:2 ~space:Paper_space.space
      ~sample_size:grid_sample_size ()
  in
  let a = grid_point 0. and b = grid_point 0.5 and c = grid_point 1. in
  miss "miss on A" cache a 1.;
  hit "A cached" cache a 1.;
  miss "miss on B" cache b 2.;
  miss "miss on C, evicting A" cache c 3.;
  Alcotest.(check (option (float 0.))) "A was evicted" None (probe cache a);
  hit "B survives" cache b 2.;
  hit "C survives" cache c 3.;
  let s = Memo.stats cache in
  Alcotest.(check int) "hits" 3 s.Memo.hits;
  Alcotest.(check int) "misses" 4 s.Memo.misses;
  Alcotest.(check int) "evictions" 1 s.Memo.evictions;
  Alcotest.(check int) "bypasses" 0 s.Memo.bypasses;
  Alcotest.(check int) "size" 2 s.Memo.size

let test_memo_lru_order () =
  let cache =
    Memo.create ~capacity:3 ~space:Paper_space.space
      ~sample_size:grid_sample_size ()
  in
  let insert u v = miss "expected miss" cache (grid_point u) v in
  let values () = List.map snd (Memo.contents cache) in
  insert 0. 1.;
  insert 0.5 2.;
  insert 1. 3.;
  Alcotest.(check (list (float 0.))) "MRU first" [ 3.; 2.; 1. ] (values ());
  (* touching A moves it to the front without changing size *)
  hit "expected hit" cache (grid_point 0.) 1.;
  Alcotest.(check (list (float 0.))) "refresh reorders" [ 1.; 3.; 2. ]
    (values ());
  (* a fourth insert evicts the tail (value 2.), deterministically *)
  insert 0.2 4.;
  Alcotest.(check (list (float 0.))) "evicts LRU" [ 4.; 1.; 3. ] (values ());
  Alcotest.(check int) "size bounded" 3 (Memo.stats cache).Memo.size

let test_memo_capacity_bound () =
  let cache =
    Memo.create ~capacity:4 ~space:Paper_space.space ~sample_size:50 ()
  in
  let rng = Rng.create 52 in
  for _ = 1 to 200 do
    let p =
      Design.Space.snap Paper_space.space ~sample_size:50
        (Array.init 9 (fun _ -> Rng.unit_float rng))
    in
    if probe cache p = None then Memo.commit cache [| Rng.unit_float rng |]
  done;
  let s = Memo.stats cache in
  Alcotest.(check int) "size never exceeds capacity" 4 s.Memo.size;
  Alcotest.(check int) "contents match size" 4
    (List.length (Memo.contents cache));
  Alcotest.(check bool) "evictions happened" true (s.Memo.evictions > 0)

let test_memo_off_grid_bypass () =
  let cache =
    Memo.create ~capacity:8 ~space:Paper_space.space
      ~sample_size:grid_sample_size ()
  in
  let p = grid_point 0.5 in
  p.(0) <- p.(0) +. 1e-13;
  Alcotest.(check (option (float 0.))) "off-grid point is not cached" None
    (probe cache p);
  Memo.commit cache [| 1. |];
  let s = Memo.stats cache in
  Alcotest.(check int) "bypass counted" 1 s.Memo.bypasses;
  Alcotest.(check int) "nothing cached" 0 s.Memo.size

let test_memo_cached_bit_identical () =
  let trained = trained_synthetic () in
  let p = trained.Build.predictor in
  let rng = Rng.create 61 in
  (* a pool of on-grid points with repeats, plus one off-grid query *)
  let pool =
    Array.init 12 (fun _ ->
        Design.Space.snap Paper_space.space ~sample_size:grid_sample_size
          (Array.init 9 (fun _ -> Rng.unit_float rng)))
  in
  let off_grid = Array.init 9 (fun _ -> Rng.unit_float rng) in
  let points =
    Array.init 64 (fun i ->
        if i mod 16 = 7 then off_grid else pool.(Rng.int rng 12))
  in
  let uncached = Predictor.predict_batch p points in
  let passes capacity =
    let cache =
      Memo.create ~capacity ~space:Paper_space.space
        ~sample_size:grid_sample_size ()
    in
    let first = Predictor.predict_batch ~cache p points in
    let second = Predictor.predict_batch ~cache p points in
    Array.iteri
      (fun i _ ->
        check_bits (Printf.sprintf "cap %d cold i=%d" capacity i) uncached.(i)
          first.(i);
        check_bits (Printf.sprintf "cap %d warm i=%d" capacity i) uncached.(i)
          second.(i))
      points;
    Memo.stats cache
  in
  let s = passes 256 in
  (* inserts land after the whole batch evaluates, so every on-grid
     lookup in the cold pass (60 of 64) is a miss; the warm pass hits
     them all; the 4 off-grid queries bypass in both passes *)
  Alcotest.(check int) "cold pass misses" 60 s.Memo.misses;
  Alcotest.(check int) "warm pass hits" 60 s.Memo.hits;
  Alcotest.(check int) "off-grid bypassed" 8 s.Memo.bypasses;
  (* up to 12 distinct keys through 4 slots: the commit evicts inside each
     batch, and the warm pass finds most keys gone *)
  let s = passes 4 in
  Alcotest.(check bool) "cap 4 evicts" true (s.Memo.evictions > 0);
  Alcotest.(check int) "cap 4 classifies every lookup" 128
    (s.Memo.hits + s.Memo.misses + s.Memo.bypasses)

(* ---------- metric responses ---------- *)

let test_power_response () =
  let r =
    Response.simulator_metric ~trace_length:3_000
      ~metric:Response.Energy_per_instruction
      Archpred_workloads.Spec2000.crafty
  in
  let v = r.Response.eval (Array.make 9 0.5) in
  Alcotest.(check bool) "epi positive" true (v > 0.)

let test_metric_names () =
  Alcotest.(check string) "cpi" "cpi" (Response.metric_to_string Response.Cpi);
  Alcotest.(check string) "epi" "epi"
    (Response.metric_to_string Response.Energy_per_instruction);
  Alcotest.(check string) "edp" "edp"
    (Response.metric_to_string Response.Energy_delay_product)


(* ---------- Sensitivity ---------- *)

let test_sensitivity_main_effects () =
  (* synthetic_smooth only involves dims 0, 1 and 2 *)
  let trained = trained_synthetic () in
  let effects = Core.Sensitivity.main_effects trained.Build.predictor in
  let top3 =
    List.filteri (fun i _ -> i < 3) effects
    |> List.map (fun e -> e.Core.Sensitivity.dim)
    |> List.sort compare
  in
  Alcotest.(check (list int)) "active dims ranked first" [ 0; 1; 2 ] top3;
  (* inactive dimensions have (near-)zero main effect *)
  List.iter
    (fun (e : Core.Sensitivity.effect) ->
      if e.Core.Sensitivity.dim > 2 && e.Core.Sensitivity.magnitude > 0.25 then
        Alcotest.failf "dim %d should be inactive (%.3f)"
          e.Core.Sensitivity.dim e.Core.Sensitivity.magnitude)
    effects

let test_sensitivity_total_effects () =
  let trained = trained_synthetic () in
  let rng = Rng.create 33 in
  let effects =
    Core.Sensitivity.total_effects ~samples:256 ~rng trained.Build.predictor
  in
  match effects with
  | first :: _ ->
      Alcotest.(check bool) "strongest is an active dim" true
        (first.Core.Sensitivity.dim <= 2)
  | [] -> Alcotest.fail "no effects"

let test_sensitivity_interaction () =
  let trained = trained_synthetic () in
  (* the surface has a 0.6*x0*x1 term: (0,1) interacts, (5,6) does not *)
  let predictor = trained.Build.predictor in
  let name k = (Design.Space.parameter predictor.Core.Predictor.space k).name in
  let strength j k =
    match
      List.find_opt
        (fun (a, b, _) -> a = name j && b = name k)
        (Core.Sensitivity.top_interactions ~count:max_int predictor)
    with
    | Some (_, _, s) -> s
    | None -> Alcotest.failf "pair (%d, %d) not ranked" j k
  in
  Alcotest.(check bool) "x0*x1 interaction dominates" true
    (strength 0 1 > strength 5 6)

let test_sensitivity_top_interactions () =
  let trained = trained_synthetic () in
  let tops = Core.Sensitivity.top_interactions ~count:5 trained.Build.predictor in
  Alcotest.(check int) "five pairs" 5 (List.length tops);
  match tops with
  | (a, b, _) :: _ ->
      Alcotest.(check bool) "strongest pair involves x0/x1" true
        ((a = "pipe_depth" && b = "ROB_size")
        || a = "pipe_depth" || b = "ROB_size")
  | [] -> Alcotest.fail "no pairs"


let test_training_deterministic () =
  (* identical seeds give bit-identical models end to end *)
  let response = Response.synthetic_smooth ~dim:9 in
  let train () =
    Build.train
      ~config:
        (Config.default
        |> Config.with_rng (Rng.create 99)
        |> Config.with_lhs_candidates 10
        |> Config.with_sample_size 40)
      ~space:Paper_space.space ~response ()
  in
  let a = train () and b = train () in
  let rng = Rng.create 5 in
  for _ = 1 to 10 do
    let p = Array.init 9 (fun _ -> Rng.unit_float rng) in
    Alcotest.(check (float 0.)) "bit identical"
      (Predictor.predict a.Build.predictor p)
      (Predictor.predict b.Build.predictor p)
  done

let test_tune_domain_invariant () =
  (* The tuning grid is fanned over the pool; ties keep the earliest cell,
     so the winner is bit-identical for every domain count. *)
  let rng = Rng.create 41 in
  let points, responses = synthetic_sample rng 40 in
  let run domains =
    Tune.tune
      ~config:
        (Config.default
        |> Config.with_p_min_grid [ 1; 2 ]
        |> Config.with_alpha_grid [ 5.; 9. ]
        |> Config.with_domains domains)
      ~dim:9 ~points ~responses ()
  in
  let base = run 1 in
  List.iter
    (fun d ->
      let r = run d in
      Alcotest.(check int) "same p_min" base.Tune.p_min r.Tune.p_min;
      Alcotest.(check (float 0.)) "same alpha" base.Tune.alpha r.Tune.alpha;
      Alcotest.(check (float 0.)) "same criterion" base.Tune.criterion
        r.Tune.criterion;
      Alcotest.(check (list int)) "same centers"
        base.Tune.selection.Archpred_rbf.Selection.selected_node_ids
        r.Tune.selection.Archpred_rbf.Selection.selected_node_ids)
    [ 2; 4; 7 ]

let test_train_domain_invariant () =
  (* The headline guarantee: every parallel stage of Build.train preserves
     serial evaluation order, so domains=1 and domains=N give the same
     predictor bit for bit. *)
  let response = Response.synthetic_smooth ~dim:9 in
  let train domains =
    Build.train
      ~config:
        (Config.default
        |> Config.with_rng (Rng.create 99)
        |> Config.with_lhs_candidates 10
        |> Config.with_domains domains
        |> Config.with_sample_size 40)
      ~space:Paper_space.space ~response ()
  in
  let a = train 1 and b = train 5 in
  Alcotest.(check (float 0.)) "same discrepancy" a.Build.discrepancy
    b.Build.discrepancy;
  Alcotest.(check (float 0.)) "same criterion" a.Build.criterion
    b.Build.criterion;
  let rng = Rng.create 6 in
  for _ = 1 to 10 do
    let p = Array.init 9 (fun _ -> Rng.unit_float rng) in
    Alcotest.(check (float 0.)) "bit identical"
      (Predictor.predict a.Build.predictor p)
      (Predictor.predict b.Build.predictor p)
  done

let test_config_sim_batch_validates () =
  let ok = Config.default |> Config.with_sim_batch 16 |> Config.validate in
  Alcotest.(check int) "accepted" 16 ok.Config.sim_batch;
  Alcotest.(check bool) "sim_batch < 1 rejected" true
    (match Config.validate (Config.default |> Config.with_sim_batch 0) with
    | exception Core.Error.Archpred (Core.Error.Invalid_input _) -> true
    | _ -> false)

let test_train_sim_batch_invariant () =
  (* Batched simulation is bit-identical to the pointwise reference, so
     the chunk size cannot leak into the trained model. *)
  let train b =
    let response =
      Response.simulator ~trace_length:800 Archpred_workloads.Spec2000.twolf
    in
    Build.train
      ~config:
        (Config.default
        |> Config.with_rng (Rng.create 23)
        |> Config.with_lhs_candidates 5
        |> Config.with_p_min_grid [ 1 ]
        |> Config.with_alpha_grid [ 7. ]
        |> Config.with_sample_size 25
        |> Config.with_sim_batch b)
      ~space:Paper_space.space ~response ()
  in
  let a = train 1 and b = train 16 in
  Alcotest.(check (float 0.)) "same discrepancy" a.Build.discrepancy
    b.Build.discrepancy;
  Alcotest.(check (float 0.)) "same criterion" a.Build.criterion
    b.Build.criterion;
  let rng = Rng.create 3 in
  for _ = 1 to 10 do
    let p = Array.init 9 (fun _ -> Rng.unit_float rng) in
    Alcotest.(check (float 0.)) "bit identical"
      (Predictor.predict a.Build.predictor p)
      (Predictor.predict b.Build.predictor p)
  done

let test_persist_version_check () =
  let trained = trained_synthetic () in
  let text = Core.Persist.to_string trained.Build.predictor in
  let bumped =
    "archpred-model 99" ^ String.sub text 16 (String.length text - 16)
  in
  Alcotest.(check bool) "future version rejected" true
    (match Core.Persist.of_string bumped with
    | exception Core.Error.Archpred (Core.Error.Parse_error _) -> true
    | _ -> false)

(* ---------- Bench_report ---------- *)

(* Every BENCH_*.json record opens with the same stamps, whatever its
   schema; perfbench's record is written through this one writer. *)
let test_report_envelope () =
  let module Json = Archpred_obs.Json in
  let path = Filename.temp_file "archpred_report" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Core.Bench_report.write ~path ~schema:"archpred-test-v1"
    [ ("payload", Json.Int 42) ];
  let j =
    match Json.of_string (In_channel.with_open_text path In_channel.input_all) with
    | Ok j -> j
    | Error m -> Alcotest.failf "%s is not valid JSON: %s" path m
  in
  let field name ok =
    match Json.member name j with
    | Some v when ok v -> ()
    | _ -> Alcotest.failf "envelope field %S missing or out of range" name
  in
  field "schema" (function Json.String "archpred-test-v1" -> true | _ -> false);
  field "schema_version" (function Json.Int v -> v >= 1 | _ -> false);
  field "cores" (function Json.Int c -> c >= 1 | _ -> false);
  field "domains" (function Json.Int d -> d >= 1 | _ -> false);
  field "git_describe" (function Json.String s -> s <> "" | _ -> false);
  field "simd" (function
    | Json.String ("avx512" | "avx2" | "scalar") -> true
    | _ -> false);
  field "simd_training" (function
    | Json.String ("avx2" | "scalar") -> true
    | _ -> false);
  field "payload" (function Json.Int 42 -> true | _ -> false)

let () =
  Alcotest.run "core"
    [
      ( "paper_space",
        [
          Alcotest.test_case "dimension" `Quick test_space_dimension;
          Alcotest.test_case "corner configs valid" `Quick test_space_corner_configs_valid;
          Alcotest.test_case "decoding ranges" `Quick test_space_decoding_ranges;
          Alcotest.test_case "iq/lsq scale with rob" `Quick test_iq_lsq_scale_with_rob;
          Alcotest.test_case "test box in cube" `Quick test_test_box_inside_cube;
          prop_random_points_give_valid_configs;
          Alcotest.test_case "test points in box" `Quick test_test_points_in_box;
        ] );
      ( "response",
        [
          Alcotest.test_case "synthetic surfaces" `Quick test_synthetic_responses;
          Alcotest.test_case "simulator deterministic" `Quick test_simulator_response_deterministic;
          Alcotest.test_case "evaluate_many" `Quick test_evaluate_many_matches_eval;
          Alcotest.test_case "parallel consistent" `Quick test_simulator_parallel_consistent;
        ] );
      ( "tune_build",
        [
          Alcotest.test_case "tune grid" `Quick test_tune_returns_grid_values;
          Alcotest.test_case "accurate on synthetic" `Quick test_build_train_accurate_on_synthetic;
          Alcotest.test_case "beats linear on cliff" `Quick test_build_beats_linear_on_cliff;
          Alcotest.test_case "early stop" `Quick test_build_to_accuracy_stops_early;
          Alcotest.test_case "exhausts schedule" `Quick test_build_to_accuracy_exhausts_schedule;
          Alcotest.test_case "nested tunes each size from scratch" `Quick
            test_build_to_accuracy_nested_tunes_from_scratch;
          Alcotest.test_case "error falls along the schedule on mcf" `Quick
            test_build_to_accuracy_error_falls_on_mcf;
          Alcotest.test_case "tune domain invariant" `Quick
            test_tune_domain_invariant;
          Alcotest.test_case "train domain invariant" `Quick
            test_train_domain_invariant;
          Alcotest.test_case "sim_batch validates" `Quick
            test_config_sim_batch_validates;
          Alcotest.test_case "train sim_batch invariant" `Quick
            test_train_sim_batch_invariant;
        ] );
      ( "predictor",
        [
          Alcotest.test_case "natural units" `Quick test_predictor_natural_units;
          Alcotest.test_case "rejects outside" `Quick test_predictor_rejects_outside;
        ] );
      ( "trend",
        [
          Alcotest.test_case "shapes" `Quick test_trend_shapes;
          Alcotest.test_case "with simulation" `Quick test_trend_with_simulation;
        ] );
      ( "search",
        [
          Alcotest.test_case "finds low corner" `Quick test_search_finds_low_corner;
          Alcotest.test_case "respects constraint" `Quick test_search_respects_constraint;
          Alcotest.test_case "infeasible raises" `Quick test_search_infeasible;
        ] );
      ( "crossval",
        [
          Alcotest.test_case "perfect model" `Quick test_crossval_perfect_model;
          Alcotest.test_case "rbf trainer" `Quick test_crossval_rbf_trainer;
          Alcotest.test_case "too few points" `Quick test_crossval_too_few_points;
        ] );
      ( "adaptive",
        [
          Alcotest.test_case "budget accounting" `Quick test_adaptive_budget_accounting;
          Alcotest.test_case "model usable" `Quick test_adaptive_model_usable;
        ] );
      ( "batch",
        [
          Alcotest.test_case "bit identical" `Quick
            test_predict_batch_bit_identical;
          Alcotest.test_case "validates points" `Quick
            test_predict_batch_validates;
          Alcotest.test_case "errors_on matches scalar" `Quick
            test_errors_on_matches_scalar;
        ] );
      ( "memo",
        [
          Alcotest.test_case "hand-computed trace" `Quick test_memo_trace;
          Alcotest.test_case "lru order" `Quick test_memo_lru_order;
          Alcotest.test_case "capacity bound" `Quick test_memo_capacity_bound;
          Alcotest.test_case "off-grid bypass" `Quick test_memo_off_grid_bypass;
          Alcotest.test_case "cached bit identical" `Quick
            test_memo_cached_bit_identical;
        ] );
      ( "persist",
        [
          Alcotest.test_case "string roundtrip" `Quick test_persist_roundtrip;
          Alcotest.test_case "file roundtrip" `Quick test_persist_file_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_persist_rejects_garbage;
          Alcotest.test_case "rejects truncated" `Quick test_persist_rejects_truncated;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "power response" `Quick test_power_response;
          Alcotest.test_case "metric names" `Quick test_metric_names;
        ] );
      ( "sensitivity",
        [
          Alcotest.test_case "main effects" `Quick test_sensitivity_main_effects;
          Alcotest.test_case "total effects" `Quick test_sensitivity_total_effects;
          Alcotest.test_case "interaction" `Quick test_sensitivity_interaction;
          Alcotest.test_case "top interactions" `Quick test_sensitivity_top_interactions;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "training deterministic" `Quick test_training_deterministic;
          Alcotest.test_case "persist version" `Quick test_persist_version_check;
        ] );
      ( "integration",
        [
          Alcotest.test_case "simulator-backed model" `Slow test_end_to_end_simulator_model;
        ] );
      ( "report",
        [ Alcotest.test_case "envelope fields" `Quick test_report_envelope ] );
    ]
