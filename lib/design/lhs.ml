module Rng = Archpred_stats.Rng
module Sampling = Archpred_stats.Sampling

let sample rng space ~n =
  if n < 2 then invalid_arg "Lhs.sample: n < 2";
  let d = Space.dimension space in
  let points = Array.init n (fun _ -> Array.make d 0.) in
  for k = 0 to d - 1 do
    let param = Space.parameter space k in
    let levels = Parameter.level_coordinates param ~sample_size:n in
    let l = Array.length levels in
    (* Assign each point a level index so all levels are covered as evenly
       as possible (stratum i covers level (i mod l)), then shuffle the
       assignment across points: this is the paper's "points corresponding
       to all settings of a parameter ... randomly combined". *)
    let assignment = Array.init n (fun i -> i mod l) in
    Sampling.shuffle_in_place rng assignment;
    for i = 0 to n - 1 do
      points.(i).(k) <- levels.(assignment.(i))
    done
  done;
  points
