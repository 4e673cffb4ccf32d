module Design = Archpred_design
module Rng = Archpred_stats.Rng

type effect = { name : string; dim : int; magnitude : float }

let names predictor =
  Array.map
    (fun (p : Design.Parameter.t) -> p.Design.Parameter.name)
    (Design.Space.parameters predictor.Predictor.space)

let sort_effects effects =
  List.sort (fun a b -> Float.compare b.magnitude a.magnitude) effects

let main_effects ?(steps = 9) predictor =
  let dim = Design.Space.dimension predictor.Predictor.space in
  let names = names predictor in
  let base = Array.make dim 0.5 in
  (* all dim * steps sweep points in one batched evaluation *)
  let queries =
    Array.init (dim * steps) (fun idx ->
        let k = idx / steps and i = idx mod steps in
        let p = Array.copy base in
        p.(k) <- float_of_int i /. float_of_int (steps - 1);
        p)
  in
  let values = Predictor.predict_batch predictor queries in
  List.init dim (fun k ->
      let v = Array.sub values (k * steps) steps in
      let lo = Array.fold_left Float.min v.(0) v in
      let hi = Array.fold_left Float.max v.(0) v in
      { name = names.(k); dim = k; magnitude = hi -. lo })
  |> sort_effects

let total_effects ?(samples = 512) ~rng predictor =
  let dim = Design.Space.dimension predictor.Predictor.space in
  let names = names predictor in
  (* Build the full query set first — base point then its dim one-axis
     perturbations, per sample — drawing from [rng] in exactly the
     order the eval-interleaved loop used to, then evaluate everything
     in one batch and accumulate in the original order. *)
  let stride = dim + 1 in
  let queries = Array.make (samples * stride) [||] in
  for s = 0 to samples - 1 do
    let p = Array.init dim (fun _ -> Rng.unit_float rng) in
    queries.(s * stride) <- p;
    for k = 0 to dim - 1 do
      let q = Array.copy p in
      q.(k) <- Rng.unit_float rng;
      queries.((s * stride) + 1 + k) <- q
    done
  done;
  let values = Predictor.predict_batch predictor queries in
  let acc = Array.make dim 0. in
  for s = 0 to samples - 1 do
    let y = values.(s * stride) in
    for k = 0 to dim - 1 do
      let d = values.((s * stride) + 1 + k) -. y in
      acc.(k) <- acc.(k) +. (d *. d)
    done
  done;
  List.init dim (fun k ->
      {
        name = names.(k);
        dim = k;
        magnitude = sqrt (acc.(k) /. float_of_int samples);
      })
  |> sort_effects

let interaction predictor ~dim ~dim1 ~dim2 =
  let corner u1 u2 =
    let p = Array.make dim 0.5 in
    p.(dim1) <- u1;
    p.(dim2) <- u2;
    p
  in
  let v =
    Predictor.predict_batch predictor
      [| corner 1. 1.; corner 1. 0.; corner 0. 1.; corner 0. 0. |]
  in
  abs_float (v.(0) -. v.(1) -. v.(2) +. v.(3))

let top_interactions ?(count = 10) predictor =
  let dim = Design.Space.dimension predictor.Predictor.space in
  let names = names predictor in
  let pairs = ref [] in
  for j = 0 to dim - 1 do
    for k = j + 1 to dim - 1 do
      pairs :=
        (names.(j), names.(k), interaction predictor ~dim ~dim1:j ~dim2:k) :: !pairs
    done
  done;
  !pairs
  |> List.sort (fun (_, _, a) (_, _, b) -> Float.compare b a)
  |> List.filteri (fun i _ -> i < count)
