(** Two-axis sweeps.

    Response-surface figures in the paper (Figure 1, Figure 6) sweep two
    parameters over a grid while holding the others fixed; [sweep2]
    builds the corresponding point set. *)

val sweep2 :
  Space.t ->
  base:Space.point ->
  dim1:int ->
  steps1:int ->
  dim2:int ->
  steps2:int ->
  Space.point array array
(** Two-dimensional sweep: row [i] varies [dim2] with [dim1] fixed at its
    [i]-th setting — the layout of a response-surface plot. *)
