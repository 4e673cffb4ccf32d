(** Prediction-error metrics.

    The paper evaluates models by the absolute percentage error of predicted
    CPI at independently sampled test points, reporting the mean, standard
    deviation and maximum over the test set (Table 3, Figure 4, Figure 7). *)

type t = {
  mean_pct : float;  (** mean absolute percentage error *)
  std_pct : float;  (** standard deviation of the absolute percentage errors *)
  max_pct : float;  (** largest absolute percentage error *)
  rmse : float;  (** root mean squared (absolute) error *)
}

val evaluate : actual:float array -> predicted:float array -> t
(** All four metrics over a test set. Raises [Invalid_argument] on length
    mismatch or an [actual] of exactly [0.]. *)

val pp : Format.formatter -> t -> unit
(** Render as [mean=.. std=.. max=.. rmse=..]. *)
