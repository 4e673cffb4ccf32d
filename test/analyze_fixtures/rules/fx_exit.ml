(* exit: bare and Stdlib-qualified. *)

let quit () = exit 1
let qualified () = Stdlib.exit 2
