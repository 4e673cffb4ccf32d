(** A small multilayer perceptron, after Ipek et al. (ASPLOS 2006).

    Section 5 of the paper cites Ipek et al.'s artificial neural networks
    as the contemporaneous alternative to RBF networks for architectural
    performance prediction; this module provides that baseline so the
    Figure 7 comparison can include it.

    One hidden tanh layer, linear output, trained by full-batch gradient
    descent with momentum on standardised targets.  Everything is
    deterministic given the seed. *)

type config = {
  hidden : int;  (** hidden units (default 16) *)
  epochs : int;  (** training epochs (default 2000) *)
  learning_rate : float;  (** (default 0.02) *)
  momentum : float;  (** (default 0.9) *)
  weight_decay : float;  (** L2 penalty (default 1e-4) *)
  seed : int;  (** weight-initialisation seed (default 1) *)
}

type t

val train :
  ?config:config ->
  points:float array array ->
  responses:float array ->
  unit ->
  t
(** Fit the network on points in the unit cube.  Raises
    [Invalid_argument] on empty or mismatched data. *)

val predict : t -> float array -> float
