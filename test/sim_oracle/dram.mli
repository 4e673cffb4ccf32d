(** The DRAM model's runtime: bank and bus reservations and access
    statistics, over {!Archpred_sim.Dram}'s configuration. *)

include module type of struct
  include Archpred_sim.Dram
end

type t

val create : config -> t

val access : t -> cycle:int -> addr:int -> int
(** [access t ~cycle ~addr] performs a memory access issued at [cycle];
    returns the cycle at which the data is available (always
    [>= cycle + base_latency]).  Advances the bank and bus reservations. *)

type stats = {
  accesses : int;
  total_latency : int;  (** summed end-to-end latencies *)
  queue_cycles : int;  (** summed cycles spent waiting for bank/bus *)
}

val stats : t -> stats
val average_latency : t -> float
val reset_stats : t -> unit
