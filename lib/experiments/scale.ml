type t = Small | Medium | Full

let of_string = function
  | "small" -> Some Small
  | "medium" -> Some Medium
  | "full" -> Some Full
  | _ -> None

let to_string = function Small -> "small" | Medium -> "medium" | Full -> "full"

let trace_length = function
  | Small -> 20_000
  | Medium -> 60_000
  | Full -> 120_000

let table_sample_size = function Small -> 50 | Medium -> 120 | Full -> 200

let sample_sizes = function
  | Small -> [ 20; 35; 50 ]
  | Medium -> [ 30; 50; 70; 90; 120 ]
  | Full -> [ 30; 50; 70; 90; 110; 200 ]

let test_points = function Small -> 25 | Medium -> 50 | Full -> 50
let ablation_sample_size = function Small -> 40 | Medium -> 90 | Full -> 120
let lhs_candidates = function Small -> 40 | Medium -> 100 | Full -> 100
