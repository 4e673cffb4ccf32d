module Tree = Archpred_regtree.Tree
module Rbf = Archpred_rbf
module Parallel = Archpred_stats.Parallel
module Obs = Archpred_obs

(* One tuning-grid cell's retained state.  The tree, candidate centers and
   Gram moments are frozen at the last full build; streamed steps extend
   the moments row by row and re-run the (cheap, moment-driven) selection
   against the grown sample. *)
type cell = {
  p_min : int;
  alpha : float;
  tree : Tree.t;
  candidates : Rbf.Tree_centers.candidate array;
  centers : Rbf.Network.center array;  (* candidates' centers, unwrapped *)
  scorer : Rbf.Subset_scorer.t;
}

type t = {
  config : Config.t;
  mutable cells : cell array;  (* [||] until the first {!fit} *)
  mutable rows : int;  (* sample rows folded into every cell's moments *)
  mutable steps : int;  (* completed {!fit} calls *)
}

let create config =
  ignore (Tune.cells config);
  if config.Config.refit_full_every < 0 then
    Obs.Error.invalid_input ~where:"Refit.create" "refit_full_every < 0";
  { config; cells = [||]; rows = 0; steps = 0 }

let result_of_cell (c : cell) (selection : Rbf.Selection.result) =
  {
    Tune.p_min = c.p_min;
    alpha = c.alpha;
    criterion = selection.Rbf.Selection.criterion;
    tree = c.tree;
    selection;
  }

(* Build every cell from scratch at the current sample, retaining the tree,
   candidates and Gram moments for later streamed steps.  Cells are laid
   out in canonical grid order so the arg-min matches [Tune.tune]. *)
let full_build t ~dim ~points ~responses =
  let { Config.obs; criterion; domains; _ } = t.config in
  let n = Array.length points in
  let grid = Tune.cells t.config in
  let trees = Tune.cell_trees ~obs ?domains ~dim ~points ~responses grid in
  let built =
    Parallel.init ?domains (Array.length grid) (fun k ->
        let p_min, alpha = grid.(k) in
        let tree = trees.(k) in
        let candidates = Rbf.Tree_centers.of_tree ~alpha tree in
        let centers =
          Array.map (fun c -> c.Rbf.Tree_centers.center) candidates
        in
        let design = Rbf.Network.design_matrix centers points in
        let scorer = Rbf.Subset_scorer.create ~design ~responses in
        let cell = { p_min; alpha; tree; candidates; centers; scorer } in
        let selection =
          Rbf.Selection.select ~obs ~criterion ~scorer ~tree ~candidates
            ~points ~responses ()
        in
        (cell, result_of_cell cell selection))
  in
  Obs.count obs "refit.rows_full" (n * Array.length grid);
  t.cells <- Array.map fst built;
  t.rows <- n;
  Tune.best (Array.map snd built)

(* Extend every cell's moments by the new sample rows (rank-1 pushes, in
   index order — the order is part of the determinism contract) and re-run
   the selection against the grown sample.  The tree and candidate set
   stay frozen: only the moments and the selected subset move. *)
let stream_step t ~points ~responses =
  let { Config.obs; criterion; domains; _ } = t.config in
  let n = Array.length points in
  let from = t.rows in
  let results =
    Parallel.map ?domains
      (fun cell ->
        for i = from to n - 1 do
          let x = points.(i) in
          let row =
            Array.map (fun c -> Rbf.Network.basis c x) cell.centers
          in
          Rbf.Subset_scorer.add_row cell.scorer ~row ~y:responses.(i)
        done;
        let selection =
          Rbf.Selection.select ~obs ~criterion ~scorer:cell.scorer
            ~tree:cell.tree ~candidates:cell.candidates ~points ~responses ()
        in
        result_of_cell cell selection)
      t.cells
  in
  Obs.count obs "refit.rows_pushed" ((n - from) * Array.length t.cells);
  t.rows <- n;
  Tune.best results

let fit t ~dim ~points ~responses =
  let n = Array.length points in
  if n <> Array.length responses then
    invalid_arg "Refit.fit: points/responses mismatch";
  if n = 0 then invalid_arg "Refit.fit: empty sample";
  if n < t.rows then
    invalid_arg "Refit.fit: sample shrank (fit expects a growing prefix)";
  let obs = t.config.Config.obs in
  Obs.with_span obs "build.refit" @@ fun () ->
  t.steps <- t.steps + 1;
  if t.cells = [||] then full_build t ~dim ~points ~responses
  else
    let streamed = stream_step t ~points ~responses in
    let full_every = t.config.Config.refit_full_every in
    if full_every > 0 && t.steps mod full_every = 0 then (
      (* Periodic drift check: rebuild from scratch, publish the criterion
         gap, and adopt the rebuilt basis going forward. *)
      let full = full_build t ~dim ~points ~responses in
      Obs.incr obs "refit.crosschecks";
      Obs.gauge obs "refit.crosscheck_delta"
        (Float.abs (streamed.Tune.criterion -. full.Tune.criterion));
      full)
    else streamed
