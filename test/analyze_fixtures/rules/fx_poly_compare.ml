(* poly-compare: Stdlib's compare, bare and qualified.  A local that
   only shares the name resolves elsewhere and is not flagged. *)

let sort (xs : float list) = List.sort compare xs
let qualified a b = Stdlib.compare a b
let shadowed (xs : float list) = let compare = Float.compare in List.sort compare xs
