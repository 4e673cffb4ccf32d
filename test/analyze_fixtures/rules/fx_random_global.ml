(* The retired random-global rule, now impure: the global generator,
   directly, through a module alias (which only path resolution sees),
   inside a functor body and through an expression-local module
   alias. *)

let draw () = Random.int 5

module R = Random

let coin () = R.bool ()

module Make (_ : sig end) = struct
  let roll () = Random.int 6
end

let flip () = let module L = Random in L.bool ()
