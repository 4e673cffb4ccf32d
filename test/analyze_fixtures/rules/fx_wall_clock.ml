(* The retired wall-clock rule, now impure. *)

let stamp () = Unix.gettimeofday ()
let cpu () = Sys.time ()
