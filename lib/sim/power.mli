(** Event-driven energy and power estimation.

    The paper's conclusion notes that "similar models can be developed for
    other metrics such as power consumption"; this module provides that
    second metric.  It is an activity-based model in the spirit of Wattch:
    each microarchitectural event (cache access, DRAM transfer, instruction
    dispatch/issue/commit, predictor lookup) costs an energy that scales
    with the sized structure that serves it, plus leakage proportional to
    structure capacity and runtime.

    Energy units are arbitrary ("nominal nanojoules"): the absolute scale
    is meaningless, but *relative* behaviour across the design space is
    what the predictive models consume — bigger caches cost more per
    access and leak more, deeper pipelines pay more per flush, bigger
    windows burn more wakeup energy. *)

type t = {
  dynamic : float;  (** activity-proportional energy *)
  leakage : float;  (** capacity x runtime energy *)
  total : float;
  energy_per_instruction : float;
  energy_delay_product : float;  (** EPI x CPI — the classic EDP metric *)
}

val estimate : Config.t -> Batch.result -> t
(** Combine a configuration's structure sizes with a run's event counts. *)
