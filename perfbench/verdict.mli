(** The verdict `--compare` prints for one metric on one workload. *)

type t =
  | Better
      (** the new median improves on the base by more than the base's
          own quartile spread *)
  | Same  (** neither better nor worse by more than the bound *)
  | Worse  (** the new median is worse than the base by more than the bound *)
  | Unresolved
      (** the run-to-run spread of either side is wider than the bound,
          so a change within it cannot be told from noise; an improvement
          still counts when every new run beats every base run *)

val to_string : t -> string

val judge :
  better:Spec.better -> bound:float -> base:float list -> fresh:float list -> t
(** Judge one metric from the per-run values of both sides.  Raises
    [Invalid_argument] when either list is empty. *)
