module Space = Archpred_design.Space
module Network = Archpred_rbf.Network
module Error_metrics = Archpred_stats.Error_metrics

type t = {
  space : Space.t;
  network : Network.t;
  packed : Network.packed;
  tree : Archpred_regtree.Tree.t option;
  p_min : int;
  alpha : float;
}

let make ~space ~network ?tree ~p_min ~alpha () =
  { space; network; packed = Network.pack network; tree; p_min; alpha }

let predict t point =
  Space.validate_point t.space point;
  Network.eval t.network point

let predict_natural t values = predict t (Space.encode t.space values)
let n_centers t = Array.length t.network.Network.centers

let predict_batch ?(obs = Archpred_obs.null) ?cache t points =
  let n = Array.length points in
  Space.validate_points t.space points;
  Archpred_obs.incr obs "predict.batches";
  Archpred_obs.count obs "predict.points" n;
  match cache with
  | None -> Network.eval_batch t.packed points
  | Some c ->
      (* probe the whole batch first, kernel-evaluate only the misses,
         then commit the missed keys in one pass — the memo never costs
         per-point bookkeeping on the hit path *)
      let out = Array.make n 0. in
      let miss = Array.make n 0 in
      let k = Memo.probe_batch c points ~out ~miss in
      if k > 0 then begin
        let vals =
          Network.eval_batch t.packed
            (Array.init k (fun j -> points.(miss.(j))))
        in
        for j = 0 to k - 1 do
          out.(miss.(j)) <- vals.(j)
        done;
        Memo.commit c out
      end;
      out

let errors_on t ~points ~actual =
  let predicted = predict_batch t points in
  Error_metrics.evaluate ~actual ~predicted
