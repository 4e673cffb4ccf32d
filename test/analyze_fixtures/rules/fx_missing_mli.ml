(* missing-mli: a unit with no interface. *)

let answer = 42
