type entry = {
  id : string;
  title : string;
  run : Context.t -> Format.formatter -> unit;
}

let paper_only =
  [
    { id = "table1"; title = "Parameter ranges and levels"; run = Table1.run };
    { id = "table2"; title = "Test-data parameter ranges"; run = Table2.run };
    { id = "table3"; title = "Error diagnostics of the predictive model"; run = Table3.run };
    { id = "table4"; title = "Diagnostics of the RBF model for mcf"; run = Table4.run };
    { id = "table5"; title = "Most significant tree splits"; run = Table5.run };
    { id = "fig1"; title = "CPI response surface (vortex)"; run = Fig1.run };
    { id = "fig2"; title = "L2-star discrepancy vs simulations"; run = Fig2.run };
    { id = "fig3"; title = "The RBF network (trained instance)"; run = Fig3.run };
    { id = "fig4"; title = "Error vs sample size (mcf, twolf)"; run = Fig4.run };
    { id = "fig5"; title = "Split-value distribution (mcf)"; run = Fig5.run };
    { id = "fig6"; title = "Predicted vs simulated trends (vortex)"; run = Fig6.run };
    { id = "fig7"; title = "Linear vs RBF accuracy"; run = Fig7.run };
  ]

let ablations =
  [
    { id = "ablation_sampling"; title = "Sampling-strategy ablation"; run = Ablations.sampling };
    { id = "ablation_centers"; title = "Center-selection ablation"; run = Ablations.centers };
    { id = "ablation_criterion"; title = "Selection-criterion ablation"; run = Ablations.criterion };
    { id = "ablation_alpha"; title = "Radius-scale ablation"; run = Ablations.alpha };
  ]

let extensions =
  [
    { id = "ext_firstorder"; title = "First-order analytical model baseline"; run = Extensions.firstorder };
    { id = "ext_power"; title = "RBF models of energy per instruction"; run = Extensions.power };
    { id = "ext_statsim"; title = "Statistical-simulation clone accuracy"; run = Extensions.stat_sim };
    { id = "ext_adaptive"; title = "Adaptive sampling vs one-shot LHS"; run = Extensions.adaptive };
    { id = "ext_modelzoo"; title = "All section-5 model families side by side"; run = Extensions.modelzoo };
    { id = "ext_sensitivity"; title = "Model-driven parameter significance"; run = Extensions.sensitivity };
  ]

let all = paper_only @ ablations @ extensions
let find id = List.find_opt (fun e -> e.id = id) all

let run_all ?(entries = all) ctx ppf =
  Format.fprintf ppf "archpred reproduction run (scale=%s, seed=%d)@."
    (Scale.to_string (Context.scale ctx))
    (Context.seed ctx);
  List.iter
    (fun e ->
      let t0 = Archpred_obs.now_ns () in
      e.run ctx ppf;
      Format.fprintf ppf "@.";
      (* Timings go to stderr, so the results stream is the same bytes
         on every run of the same seed and scale. *)
      Format.eprintf "[%s finished in %.1fs]@." e.id
        (Archpred_obs.seconds_since t0))
    entries
