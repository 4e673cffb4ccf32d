(* float-lit-eq: (=)/(<>) against a float literal, a negated literal,
   and a float literal in a pattern.  Float.equal is not flagged. *)

let half x = x = 0.5
let negated x = x <> ~-.2.0
let one x = match x with 1.0 -> true | _ -> false
let tolerant x = Float.equal x 0.5
