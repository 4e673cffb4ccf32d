(** Random permutations.

    Latin hypercube sampling needs an independent random permutation of the
    level indices in every design-space dimension; these helpers provide
    that on top of {!Rng}. *)

val shuffle_in_place : Rng.t -> 'a array -> unit
(** Fisher–Yates shuffle. *)

val permutation : Rng.t -> int -> int array
(** [permutation rng n] is a uniformly random permutation of [0 .. n-1]. *)
