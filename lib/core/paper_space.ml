module Design = Archpred_design
module Config = Archpred_sim.Config

let kb n = n * 1024
let mb n = n * 1024 * 1024

(* Table 1: parameter ranges and levels.  "Low" is the value at normalised
   coordinate 0, which for pipe_depth, L2_lat and dl1_lat is the *worse*
   (numerically larger) setting, exactly as printed in the paper. *)
let parameters =
  let open Design.Parameter in
  [
    make "pipe_depth" ~lo:24. ~hi:7. ~levels:(Fixed 18) ~integer:true;
    make "ROB_size" ~lo:24. ~hi:128. ~levels:Per_sample ~integer:true;
    make "IQ_ratio" ~lo:0.25 ~hi:0.75 ~levels:Per_sample;
    make "LSQ_ratio" ~lo:0.25 ~hi:0.75 ~levels:Per_sample;
    make "L2_size"
      ~lo:(float_of_int (kb 256))
      ~hi:(float_of_int (mb 8))
      ~levels:(Fixed 6) ~transform:Design.Transform.Log ~integer:true;
    make "L2_lat" ~lo:20. ~hi:5. ~levels:(Fixed 16) ~integer:true;
    make "il1_size"
      ~lo:(float_of_int (kb 8))
      ~hi:(float_of_int (kb 64))
      ~levels:(Fixed 4) ~transform:Design.Transform.Log ~integer:true;
    make "dl1_size"
      ~lo:(float_of_int (kb 8))
      ~hi:(float_of_int (kb 64))
      ~levels:(Fixed 4) ~transform:Design.Transform.Log ~integer:true;
    make "dl1_lat" ~lo:4. ~hi:1. ~levels:(Fixed 4) ~integer:true;
  ]

let space = Design.Space.create parameters
let param_names = Array.of_list (List.map (fun (p : Design.Parameter.t) -> p.name) parameters)
let dim = Design.Space.dimension space

(* Table 2: the narrower test box, expressed in natural units and encoded
   into normalised coordinates of the Table 1 space. *)
let test_lo =
  Design.Space.encode space
    [|
      22.; 37.; 0.31; 0.31; float_of_int (kb 256); 18.;
      float_of_int (kb 8); float_of_int (kb 8); 4.;
    |]

let test_hi =
  Design.Space.encode space
    [|
      9.; 115.; 0.69; 0.69; float_of_int (mb 8); 7.;
      float_of_int (kb 64); float_of_int (kb 64); 1.;
    |]

let to_config point =
  let v = Design.Space.decode space point in
  let pipe_depth = int_of_float v.(0) in
  let rob_size = int_of_float v.(1) in
  let ratio_size ratio =
    max 4 (min rob_size (int_of_float (Float.round (ratio *. float_of_int rob_size))))
  in
  Config.make ~pipe_depth ~rob_size
    ~iq_size:(ratio_size v.(2))
    ~lsq_size:(ratio_size v.(3))
    ~l2_size:(int_of_float v.(4))
    ~l2_latency:(int_of_float v.(5))
    ~il1_size:(int_of_float v.(6))
    ~dl1_size:(int_of_float v.(7))
    ~dl1_latency:(int_of_float v.(8))
    ()

let test_points rng ~n =
  Design.Random_design.sample_in_box rng space ~n ~lo:test_lo ~hi:test_hi
