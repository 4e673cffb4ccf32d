(* The retired random-global rule, now impure: the global generator,
   directly, through a module alias (which only path resolution sees)
   and inside a functor body. *)

let draw () = Random.int 5

module R = Random

let coin () = R.bool ()

module Make (_ : sig end) = struct
  let roll () = Random.int 6
end
