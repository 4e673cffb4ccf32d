(** Functional-unit occupancy: per-cycle grants and divider busy
    windows, over {!Archpred_sim.Fu_pool}'s classes and configuration. *)

include module type of struct
  include Archpred_sim.Fu_pool
end

type t

val create : config -> t

val try_issue : t -> cycle:int -> unit_class -> bool
(** Claim a unit of the class in this cycle.  Returns [false] if all units
    are taken this cycle (pipelined classes) or busy (unpipelined). *)

val structural_stalls : t -> int
(** Number of [try_issue] calls refused so far. *)

val reset_stats : t -> unit
