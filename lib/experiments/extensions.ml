module Core = Archpred_core
module Stats = Archpred_stats
module Sim = Archpred_sim
module Workloads = Archpred_workloads
module Firstorder = Archpred_firstorder
module Mlp = Archpred_ann.Mlp
module Mars = Archpred_splines.Mars

let firstorder ctx ppf =
  Report.section ppf ~id:"Extension: first-order model"
    ~title:"Karkhanis-Smith-style analytical model vs fitted models";
  let n = Scale.table_sample_size (Context.scale ctx) in
  let trace_length = Scale.trace_length (Context.scale ctx) in
  Format.fprintf ppf "%-12s %12s %12s %12s@." "benchmark" "firstorder%"
    "linear%" "rbf%";
  Report.rule ppf;
  List.iter
    (fun (profile : Workloads.Profile.t) ->
      let trained = Context.train ctx profile ~n in
      let points, actual = Context.test_set ctx profile in
      let rbf =
        Core.Predictor.errors_on trained.Core.Build.predictor ~points ~actual
      in
      let linear =
        Archpred_linreg.Model.stepwise ~points:trained.Core.Build.sample
          ~responses:trained.Core.Build.sample_responses ()
      in
      let lin_err =
        Stats.Error_metrics.evaluate ~actual
          ~predicted:(Array.map (Archpred_linreg.Model.predict linear) points)
      in
      (* The analytical model sees the same trace the simulator ran. *)
      let trace =
        Workloads.Generator.generate ~seed:(Context.seed ctx) profile
          ~length:trace_length
      in
      let fo = Firstorder.Model.create trace in
      let fo_pred =
        Array.map (fun p -> Firstorder.Model.cpi fo (Core.Paper_space.to_config p)) points
      in
      let fo_err = Stats.Error_metrics.evaluate ~actual ~predicted:fo_pred in
      Format.fprintf ppf "%-12s %12.1f %12.1f %12.1f@." profile.name
        fo_err.Stats.Error_metrics.mean_pct lin_err.Stats.Error_metrics.mean_pct
        rbf.Stats.Error_metrics.mean_pct)
    [ Workloads.Spec2000.mcf; Workloads.Spec2000.vortex; Workloads.Spec2000.twolf ];
  Format.fprintf ppf
    "@.Expected: the mechanistic model needs no training simulations but \
     its error across@.the full space is far above the fitted RBF model \
     (the paper's section 5 claim).@."

let power ctx ppf =
  Report.section ppf ~id:"Extension: power model"
    ~title:"RBF models of energy per instruction (paper section 6)";
  let n = Scale.table_sample_size (Context.scale ctx) in
  let trace_length = Scale.trace_length (Context.scale ctx) in
  Format.fprintf ppf "%-12s %10s %10s %10s@." "benchmark" "mean%" "max%"
    "spearman";
  Report.rule ppf;
  List.iter
    (fun (profile : Workloads.Profile.t) ->
      let response =
        Core.Response.simulator_metric ~obs:(Context.obs ctx) ~trace_length
          ~seed:(Context.seed ctx)
          ~metric:Core.Response.Energy_per_instruction profile
      in
      let trained =
        Core.Build.train
          ~config:(Context.config ctx ~n)
          ~space:Core.Paper_space.space ~response ()
      in
      let points, _ = Context.test_set ctx profile in
      let actual = Core.Response.evaluate_many response points in
      let err =
        Core.Predictor.errors_on trained.Core.Build.predictor ~points ~actual
      in
      let predicted =
        Array.map (Core.Predictor.predict trained.Core.Build.predictor) points
      in
      Format.fprintf ppf "%-12s %10.1f %10.1f %10.3f@." profile.name
        err.Stats.Error_metrics.mean_pct err.Stats.Error_metrics.max_pct
        (Stats.Correlation.spearman actual predicted))
    [ Workloads.Spec2000.mcf; Workloads.Spec2000.equake ];
  Format.fprintf ppf
    "@.Expected: energy per instruction is as modelable as CPI — low mean \
     error and@.near-perfect rank correlation, supporting the paper's \
     conclusion.@."

let stat_sim ctx ppf =
  Report.section ppf ~id:"Extension: statistical simulation"
    ~title:"Profile-and-regenerate clones vs their originals (section 5)";
  let trace_length = Scale.trace_length (Context.scale ctx) in
  let rng = Context.rng ctx in
  let configs =
    Array.map Core.Paper_space.to_config (Core.Paper_space.test_points rng ~n:12)
  in
  Format.fprintf ppf "%-12s %12s %12s %10s@." "benchmark" "mean|dCPI|%"
    "max|dCPI|%" "spearman";
  Report.rule ppf;
  List.iter
    (fun (profile : Workloads.Profile.t) ->
      let original =
        Workloads.Generator.generate ~seed:(Context.seed ctx) profile
          ~length:trace_length
      in
      let extracted = Workloads.Extractor.profile_of_trace original in
      let clone =
        Workloads.Generator.generate ~seed:(Context.seed ctx + 1) extracted
          ~length:trace_length
      in
      let cpis trace = Sim.Batch.cpi configs trace in
      let orig_cpi = cpis original and clone_cpi = cpis clone in
      let err =
        Stats.Error_metrics.evaluate ~actual:orig_cpi ~predicted:clone_cpi
      in
      Format.fprintf ppf "%-12s %12.1f %12.1f %10.3f@." profile.name
        err.Stats.Error_metrics.mean_pct err.Stats.Error_metrics.max_pct
        (Stats.Correlation.spearman orig_cpi clone_cpi))
    [ Workloads.Spec2000.mcf; Workloads.Spec2000.crafty; Workloads.Spec2000.equake ];
  Format.fprintf ppf
    "@.Expected: clones rank configurations like their originals (high \
     correlation) but@.absolute CPI drifts — the accuracy caveat the paper \
     raises for statistical simulation.@."

let adaptive ctx ppf =
  Report.section ppf ~id:"Extension: adaptive sampling"
    ~title:"Adaptive sampling vs one-shot LHS at equal budget (section 6)";
  let profile = Workloads.Spec2000.mcf in
  let response = Context.response ctx profile in
  let points, actual = Context.test_set ctx profile in
  let initial, batch, rounds =
    match Context.scale ctx with
    | Scale.Small -> (20, 8, 2)
    | Scale.Medium -> (30, 15, 3)
    | Scale.Full -> (40, 20, 4)
  in
  let result =
    Core.Adaptive.run ~initial ~batch ~rounds ~rng:(Context.rng ctx)
      ~space:Core.Paper_space.space ~response ()
  in
  let budget = result.Core.Adaptive.total_simulations in
  let adaptive_err =
    Core.Predictor.errors_on result.Core.Adaptive.trained.Core.Build.predictor
      ~points ~actual
  in
  let one_shot =
    Core.Build.train
      ~config:(Context.config ctx ~n:budget)
      ~space:Core.Paper_space.space ~response ()
  in
  let lhs_err =
    Core.Predictor.errors_on one_shot.Core.Build.predictor ~points ~actual
  in
  Format.fprintf ppf "budget: %d simulations (%s)@.@." budget profile.name;
  Format.fprintf ppf "%-20s %10s %10s@." "strategy" "mean%" "max%";
  Report.rule ppf;
  Format.fprintf ppf "%-20s %10.2f %10.2f@." "adaptive"
    adaptive_err.Stats.Error_metrics.mean_pct
    adaptive_err.Stats.Error_metrics.max_pct;
  Format.fprintf ppf "%-20s %10.2f %10.2f@." "one-shot LHS"
    lhs_err.Stats.Error_metrics.mean_pct lhs_err.Stats.Error_metrics.max_pct;
  Format.fprintf ppf "@.cross-validated error by round:@.";
  List.iter
    (fun (s : Core.Adaptive.step) ->
      Format.fprintf ppf "  n=%-4d cv=%.2f%%@." s.Core.Adaptive.sample_size
        s.Core.Adaptive.cv_error_pct)
    result.Core.Adaptive.steps;
  Format.fprintf ppf
    "@.Expected: at equal budget, adaptive refinement is competitive with \
     (often better@.than) one-shot space filling, supporting the paper's \
     future-work hypothesis.@."

let modelzoo ctx ppf =
  Report.section ppf ~id:"Extension: model zoo"
    ~title:
      "All model families of section 5 on one benchmark set: first-order, \
       linear, splines (Lee-Brooks), ANN (Ipek et al.), RBF (this paper)";
  let n = Scale.table_sample_size (Context.scale ctx) in
  let trace_length = Scale.trace_length (Context.scale ctx) in
  Format.fprintf ppf "%-12s %10s %10s %10s %10s %10s@." "benchmark" "f-order%"
    "linear%" "spline%" "ann%" "rbf%";
  Report.rule ppf;
  List.iter
    (fun (profile : Workloads.Profile.t) ->
      let trained = Context.train ctx profile ~n in
      let points, actual = Context.test_set ctx profile in
      let sample = trained.Core.Build.sample in
      let sample_responses = trained.Core.Build.sample_responses in
      let err_of predicted =
        (Stats.Error_metrics.evaluate ~actual ~predicted)
          .Stats.Error_metrics.mean_pct
      in
      let rbf =
        err_of
          (Array.map (Core.Predictor.predict trained.Core.Build.predictor) points)
      in
      let linear =
        let m =
          Archpred_linreg.Model.stepwise ~points:sample
            ~responses:sample_responses ()
        in
        err_of (Array.map (Archpred_linreg.Model.predict m) points)
      in
      let spline =
        let m = Mars.train ~points:sample ~responses:sample_responses () in
        err_of (Array.map (Mars.predict m) points)
      in
      let ann =
        let m = Mlp.train ~points:sample ~responses:sample_responses () in
        err_of (Array.map (Mlp.predict m) points)
      in
      let fo =
        let trace =
          Workloads.Generator.generate ~seed:(Context.seed ctx) profile
            ~length:trace_length
        in
        let m = Firstorder.Model.create trace in
        err_of
          (Array.map
             (fun p -> Firstorder.Model.cpi m (Core.Paper_space.to_config p))
             points)
      in
      Format.fprintf ppf "%-12s %10.1f %10.1f %10.1f %10.1f %10.1f@."
        profile.name fo linear spline ann rbf)
    [ Workloads.Spec2000.mcf; Workloads.Spec2000.vortex; Workloads.Spec2000.twolf ];
  Format.fprintf ppf
    "@.Expected: the fitted non-linear families (splines, ANN, RBF) are \
     competitive with@.each other and clearly ahead of the linear and \
     analytical baselines; RBF wins or@.ties at this sample size (the \
     paper's Figure 7 claim, extended to section 5's zoo).@."

let sensitivity ctx ppf =
  Report.section ppf ~id:"Extension: sensitivity"
    ~title:
      "Model-driven parameter significance vs regression-tree splits \
       (HPCA'06 companion)";
  let n = Scale.table_sample_size (Context.scale ctx) in
  List.iter
    (fun (profile : Workloads.Profile.t) ->
      let trained = Context.train ctx profile ~n in
      let predictor = trained.Core.Build.predictor in
      Report.subheading ppf profile.name;
      Format.fprintf ppf "  %-28s | %-28s@." "total effect (model)"
        "split count (tree)";
      Report.rule ppf;
      let effects =
        Core.Sensitivity.total_effects ~samples:256 ~rng:(Context.rng ctx)
          predictor
      in
      let splits =
        Archpred_regtree.Tree.splits trained.Core.Build.tune.Core.Tune.tree
      in
      let split_count dim =
        List.length
          (List.filter
             (fun (s : Archpred_regtree.Tree.split) -> s.Archpred_regtree.Tree.dim = dim)
             splits)
      in
      List.iteri
        (fun i (e : Core.Sensitivity.effect) ->
          if i < 5 then
            Format.fprintf ppf "  %-12s %8.4f          | %-12s %4d@."
              e.Core.Sensitivity.name e.Core.Sensitivity.magnitude
              e.Core.Sensitivity.name
              (split_count e.Core.Sensitivity.dim))
        effects)
    [ Workloads.Spec2000.mcf; Workloads.Spec2000.vortex ];
  Format.fprintf ppf
    "@.Expected: the parameters the fitted model ranks as most significant \
     are the ones@.the regression tree splits most often — two views of the \
     same structure.@."
