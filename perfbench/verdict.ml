type t = Better | Same | Worse | Unresolved

let to_string = function
  | Better -> "better"
  | Same -> "same"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

(* Positive when [fresh] is worse than [base] in the metric's direction. *)
let worsening ~better ~base fresh =
  let d = (fresh -. base) /. Float.abs base in
  match better with Spec.Lower -> d | Spec.Higher -> -.d

let judge ~better ~bound ~base ~fresh =
  let sb = Summary.of_samples base and sf = Summary.of_samples fresh in
  let reads_better x y =
    match better with Spec.Lower -> x < y | Spec.Higher -> x > y
  in
  let every_run_better =
    List.for_all (fun f -> List.for_all (fun b -> reads_better f b) base) fresh
  in
  let w = worsening ~better ~base:sb.Summary.median sf.Summary.median in
  if Float.max (Summary.rel_spread sb) (Summary.rel_spread sf) > bound then
    if every_run_better then Better else Unresolved
  else if w > bound then Worse
  else if -.w > Summary.rel_spread sb then Better
  else Same
