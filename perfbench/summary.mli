(** Median and quartiles of a metric's samples, with the sample count. *)

type t = { median : float; q1 : float; q3 : float; n : int }

val median : float list -> float
(** Python's [statistics.median].  Raises [Invalid_argument] on []. *)

val quartiles : float list -> float * float
(** First and third quartile as Python's [statistics.quantiles(xs, n=4)]
    computes them (one sample: both equal it).  Raises
    [Invalid_argument] on []. *)

val quantile : float list -> float -> float
(** [quantile xs q]: linear interpolation between order statistics at
    position [q * (n - 1)] ([q] clamped to [\[0, 1\]]; 0 is the minimum,
    1 the maximum).  Raises [Invalid_argument] on []. *)

val of_samples : float list -> t

val rel_spread : t -> float
(** [(q3 - q1) / |median|]: the run-to-run spread as a share of the
    median, the quantity the regression bounds are compared against. *)
