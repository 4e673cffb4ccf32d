(* The retired stdout-print rule, now impure: a top-level initializer
   and a function. *)

let () = Printf.printf "hi"
let say s = print_string s
