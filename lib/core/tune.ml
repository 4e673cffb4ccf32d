module Tree = Archpred_regtree.Tree
module Rbf = Archpred_rbf
module Parallel = Archpred_stats.Parallel
module Obs = Archpred_obs

type result = {
  p_min : int;
  alpha : float;
  criterion : float;
  tree : Tree.t;
  selection : Rbf.Selection.result;
}

let default_p_min_grid = Config.default_p_min_grid
let default_alpha_grid = Config.default_alpha_grid

(* The canonical grid-cell order — p_min outer, alpha inner — is the serial
   iteration order every consumer (the grid walk below, the streaming refit,
   the pipeline's tune stage) must share: the arg-min keeps the earliest cell
   on ties, so the cell *order* is part of the model's determinism
   contract, not just the cell set. *)
let cells config =
  let { Config.p_min_grid; alpha_grid; _ } = config in
  if p_min_grid = [] || alpha_grid = [] then
    Obs.Error.invalid_input ~where:"Tune.cells" "empty grid";
  Array.of_list
    (List.concat_map
       (fun p_min -> List.map (fun alpha -> (p_min, alpha)) alpha_grid)
       p_min_grid)

let eval_cell ?(obs = Obs.null) ~criterion ~tree ~points ~responses ~alpha () =
  let candidates = Rbf.Tree_centers.of_tree ~alpha tree in
  Rbf.Selection.select ~obs ~criterion ~tree ~candidates ~points ~responses ()

(* The tuning row's trees: one per distinct p_min of [cells], built in
   parallel, each shared read-only by every cell of its p_min. *)
let cell_trees ?(obs = Obs.null) ?domains ~dim ~points ~responses cells =
  let p_mins =
    Array.to_list cells |> List.map fst
    |> List.sort_uniq Int.compare |> Array.of_list
  in
  let trees =
    Parallel.map ?domains
      (fun p_min -> Tree.build ~obs ~p_min ~dim ~points ~responses ())
      p_mins
  in
  let row = List.combine (Array.to_list p_mins) (Array.to_list trees) in
  Array.map (fun (p_min, _) -> List.assoc p_min row) cells

let evaluate ~(config : Config.t) ~dim ~points ~responses cells =
  let { Config.criterion; domains; obs; _ } = config in
  Obs.with_span obs "build.tune" @@ fun () ->
  Obs.count obs "tune.cells" (Array.length cells);
  let trees = cell_trees ~obs ?domains ~dim ~points ~responses cells in
  (* Each cell's selection is deterministic, so the results — and the
     arg-min over them — do not depend on the domain count. *)
  Parallel.init ?domains (Array.length cells) (fun k ->
      let p_min, alpha = cells.(k) in
      let tree = trees.(k) in
      let selection =
        eval_cell ~obs ~criterion ~tree ~points ~responses ~alpha ()
      in
      {
        p_min;
        alpha;
        criterion = selection.Rbf.Selection.criterion;
        tree;
        selection;
      })

let best results =
  let best = ref results.(0) in
  for i = 1 to Array.length results - 1 do
    if results.(i).criterion < !best.criterion then best := results.(i)
  done;
  !best

let tune ?(config = Config.default) ~dim ~points ~responses () =
  best (evaluate ~config ~dim ~points ~responses (cells config))
