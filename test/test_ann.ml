(* Tests for archpred.ann: the MLP baseline (Ipek et al.). *)

module Mlp = Archpred_ann.Mlp
module Rng = Archpred_stats.Rng

let data rng n dim f =
  let points =
    Array.init n (fun _ -> Array.init dim (fun _ -> Rng.unit_float rng))
  in
  (points, Array.map f points)

(* Root-mean-square error of [m] over its own training sample. *)
let training_rmse m points responses =
  let acc = ref 0. in
  Array.iteri
    (fun i p ->
      let d = Mlp.predict m p -. responses.(i) in
      acc := !acc +. (d *. d))
    points;
  sqrt (!acc /. float_of_int (Array.length points))

let test_learns_linear () =
  let rng = Rng.create 1 in
  let f p = 2. +. (3. *. p.(0)) -. p.(1) in
  let points, responses = data rng 60 2 f in
  let m = Mlp.train ~points ~responses () in
  Alcotest.(check bool) "training rmse small" true (training_rmse m points responses < 0.1);
  let x = [| 0.3; 0.6 |] in
  Alcotest.(check bool) "prediction close" true
    (abs_float (Mlp.predict m x -. f x) < 0.2)

let test_learns_interaction () =
  (* an XOR-like multiplicative surface no linear model can fit *)
  let rng = Rng.create 2 in
  let f p = 4. *. (p.(0) -. 0.5) *. (p.(1) -. 0.5) in
  let points, responses = data rng 120 2 f in
  let config =
    {
      Mlp.hidden = 24;
      epochs = 4000;
      learning_rate = 0.02;
      momentum = 0.9;
      weight_decay = 1e-4;
      seed = 1;
    }
  in
  let m = Mlp.train ~config ~points ~responses () in
  Alcotest.(check bool) "fits interaction" true (training_rmse m points responses < 0.12);
  (* check sign structure at the four corners *)
  Alcotest.(check bool) "corner signs" true
    (Mlp.predict m [| 0.9; 0.9 |] > 0.
    && Mlp.predict m [| 0.1; 0.9 |] < 0.
    && Mlp.predict m [| 0.9; 0.1 |] < 0.
    && Mlp.predict m [| 0.1; 0.1 |] > 0.)

let test_deterministic () =
  let rng = Rng.create 3 in
  let f p = p.(0) +. p.(1) in
  let points, responses = data rng 40 2 f in
  let a = Mlp.train ~points ~responses () in
  let b = Mlp.train ~points ~responses () in
  let x = [| 0.42; 0.13 |] in
  Alcotest.(check (float 1e-12)) "same model" (Mlp.predict a x) (Mlp.predict b x)

let test_constant_response () =
  let rng = Rng.create 4 in
  let points, responses = data rng 30 3 (fun _ -> 5.) in
  let m = Mlp.train ~points ~responses () in
  Alcotest.(check bool) "predicts constant" true
    (abs_float (Mlp.predict m [| 0.5; 0.5; 0.5 |] -. 5.) < 0.2)

let test_rejects_bad_input () =
  Alcotest.check_raises "empty" (Invalid_argument "Mlp.train: empty sample")
    (fun () -> ignore (Mlp.train ~points:[||] ~responses:[||] ()));
  let rng = Rng.create 5 in
  let points, responses = data rng 20 2 (fun p -> p.(0)) in
  let m = Mlp.train ~points ~responses () in
  Alcotest.check_raises "arity" (Invalid_argument "Mlp.predict: arity mismatch")
    (fun () -> ignore (Mlp.predict m [| 0.5 |]))

let () =
  Alcotest.run "ann"
    [
      ( "mlp",
        [
          Alcotest.test_case "learns linear" `Quick test_learns_linear;
          Alcotest.test_case "learns interaction" `Quick test_learns_interaction;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "constant response" `Quick test_constant_response;
          Alcotest.test_case "rejects bad input" `Quick test_rejects_bad_input;
        ] );
    ]
