(* Clean in every scope: typed comparators, Float.equal instead of (=),
   a specific handler, and an interface. *)

let sort xs = List.sort Float.compare xs
let is_half x = Float.equal x 0.5
let head xs = try List.hd xs with Failure _ -> 0
