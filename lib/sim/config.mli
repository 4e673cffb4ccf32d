(** Full configuration of the simulated processor.

    The nine fields that the paper's design space varies (Table 1) are
    grouped first; everything else (widths, line sizes, associativities,
    DRAM and branch-predictor parameters, functional-unit mix) is held
    fixed across the design space, as in the paper. *)

type t = {
  (* --- the paper's nine design parameters --- *)
  pipe_depth : int;  (** front-end depth in stages: decode-to-issue delay,
                         and the refill penalty after a misprediction *)
  rob_size : int;
  iq_size : int;
  lsq_size : int;
  l2_size : int;  (** bytes *)
  l2_latency : int;  (** cycles *)
  il1_size : int;  (** bytes *)
  dl1_size : int;  (** bytes *)
  dl1_latency : int;  (** cycles *)
  (* --- fixed machine structure --- *)
  fetch_width : int;
  issue_width : int;
  commit_width : int;
  line_bytes : int;
  il1_assoc : int;
  dl1_assoc : int;
  l2_assoc : int;
  il1_latency : int;
  l2_prefetch : bool;  (** enable the L2 next-line prefetcher *)
  dram : Dram.config;
  branch : Branch_predictor.config;
  fu : Fu_pool.config;
}

val default : t
(** A mid-range configuration: 14-stage pipeline, 80-entry ROB, 40-entry IQ
    and LSQ, 2MB 12-cycle L2, 32KB L1s, 2-cycle L1D, 4-wide. *)

val make :
  ?base:t ->
  pipe_depth:int ->
  rob_size:int ->
  iq_size:int ->
  lsq_size:int ->
  l2_size:int ->
  l2_latency:int ->
  il1_size:int ->
  dl1_size:int ->
  dl1_latency:int ->
  unit ->
  t
(** Override the nine design parameters on top of [base] (default
    {!default}). Raises [Invalid_argument] if a parameter is out of its
    physically meaningful range (all positive; queue sizes at most the ROB
    size).  Cache capacities are rounded to the nearest whole number of
    sets, so they vary (almost) continuously across the design space. *)

val il1_config : t -> Cache.config
val dl1_config : t -> Cache.config
val l2_config : t -> Cache.config

val validate : t -> (unit, string) result
val pp : Format.formatter -> t -> unit
