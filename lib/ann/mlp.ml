module Rng = Archpred_stats.Rng

type config = {
  hidden : int;
  epochs : int;
  learning_rate : float;
  momentum : float;
  weight_decay : float;
  seed : int;
}

let default_config =
  {
    hidden = 16;
    epochs = 2000;
    learning_rate = 0.02;
    momentum = 0.9;
    weight_decay = 1e-4;
    seed = 1;
  }

type t = {
  dim : int;
  (* hidden layer: w1.(h).(k) input weights, b1.(h) biases *)
  w1 : float array array;
  b1 : float array;
  (* output layer *)
  w2 : float array;
  b2 : float;
  (* target standardisation *)
  y_mean : float;
  y_std : float;
}

let forward_hidden t x h =
  let acc = ref t.b1.(h) in
  for k = 0 to t.dim - 1 do
    acc := !acc +. (t.w1.(h).(k) *. x.(k))
  done;
  tanh !acc

let predict_std t x =
  let acc = ref t.b2 in
  for h = 0 to Array.length t.w2 - 1 do
    acc := !acc +. (t.w2.(h) *. forward_hidden t x h)
  done;
  !acc

let predict t x =
  if Array.length x <> t.dim then invalid_arg "Mlp.predict: arity mismatch";
  (predict_std t x *. t.y_std) +. t.y_mean

let train ?(config = default_config) ~points ~responses () =
  let p = Array.length points in
  if p = 0 then invalid_arg "Mlp.train: empty sample";
  if Array.length responses <> p then
    invalid_arg "Mlp.train: points/responses mismatch";
  let dim = Array.length points.(0) in
  let hidden = config.hidden in
  let rng = Rng.create config.seed in
  (* standardise targets so the learning rate is scale-free *)
  let y_mean = Archpred_stats.Descriptive.mean responses in
  let y_std =
    let s = Archpred_stats.Descriptive.std responses in
    if s < 1e-12 then 1. else s
  in
  let y = Array.map (fun v -> (v -. y_mean) /. y_std) responses in
  (* Xavier-style initialisation *)
  let init scale = (Rng.unit_float rng -. 0.5) *. 2. *. scale in
  let w1 =
    Array.init hidden (fun _ ->
        Array.init dim (fun _ -> init (1. /. sqrt (float_of_int dim))))
  in
  let b1 = Array.init hidden (fun _ -> init 0.1) in
  let w2 = Array.init hidden (fun _ -> init (1. /. sqrt (float_of_int hidden))) in
  let b2 = ref (init 0.1) in
  (* momentum buffers *)
  let vw1 = Array.init hidden (fun _ -> Array.make dim 0.) in
  let vb1 = Array.make hidden 0. in
  let vw2 = Array.make hidden 0. in
  let vb2 = ref 0. in
  (* gradient accumulators *)
  let gw1 = Array.init hidden (fun _ -> Array.make dim 0.) in
  let gb1 = Array.make hidden 0. in
  let gw2 = Array.make hidden 0. in
  let gb2 = ref 0. in
  let acts = Array.make hidden 0. in
  let model () =
    {
      dim;
      w1;
      b1;
      w2;
      b2 = !b2;
      y_mean;
      y_std;
    }
  in
  let pf = float_of_int p in
  for _ = 1 to config.epochs do
    (* zero gradients *)
    for h = 0 to hidden - 1 do
      Array.fill gw1.(h) 0 dim 0.;
      gb1.(h) <- 0.;
      gw2.(h) <- 0.
    done;
    gb2 := 0.;
    (* full-batch forward/backward *)
    for i = 0 to p - 1 do
      let x = points.(i) in
      let m = model () in
      for h = 0 to hidden - 1 do
        acts.(h) <- forward_hidden m x h
      done;
      let out = ref !b2 in
      for h = 0 to hidden - 1 do
        out := !out +. (w2.(h) *. acts.(h))
      done;
      let err = !out -. y.(i) in
      gb2 := !gb2 +. err;
      for h = 0 to hidden - 1 do
        gw2.(h) <- gw2.(h) +. (err *. acts.(h));
        let dh = err *. w2.(h) *. (1. -. (acts.(h) *. acts.(h))) in
        gb1.(h) <- gb1.(h) +. dh;
        for k = 0 to dim - 1 do
          gw1.(h).(k) <- gw1.(h).(k) +. (dh *. x.(k))
        done
      done
    done;
    (* momentum update with weight decay *)
    let step v g w =
      let v' = (config.momentum *. v) -. (config.learning_rate *. ((g /. pf) +. (config.weight_decay *. w))) in
      (v', w +. v')
    in
    for h = 0 to hidden - 1 do
      for k = 0 to dim - 1 do
        let v', w' = step vw1.(h).(k) gw1.(h).(k) w1.(h).(k) in
        vw1.(h).(k) <- v';
        w1.(h).(k) <- w'
      done;
      let v', w' = step vb1.(h) gb1.(h) b1.(h) in
      vb1.(h) <- v';
      b1.(h) <- w';
      let v', w' = step vw2.(h) gw2.(h) w2.(h) in
      vw2.(h) <- v';
      w2.(h) <- w'
    done;
    let v', w' = step !vb2 !gb2 !b2 in
    vb2 := v';
    b2 := w'
  done;
  model ()
