module Sim = Archpred_sim
module Opcode = Sim.Opcode

type t = { stats : Trace_stats.t; n : float }

let create trace =
  {
    stats = Trace_stats.analyse trace;
    n = float_of_int (Sim.Trace.length trace);
  }

type breakdown = {
  base : float;
  branch : float;
  icache : float;
  dcache_l2 : float;
  dcache_memory : float;
}

let exec_latency cfg op =
  match Sim.Fu_pool.class_of_opcode op with
  | None -> 1
  | Some Sim.Fu_pool.Mem_port -> cfg.Sim.Config.dl1_latency
  | Some cls -> Sim.Fu_pool.latency cfg.Sim.Config.fu cls

let components t cfg =
  let n = t.n in
  let w = cfg.Sim.Config.rob_size in
  (* Background term: data-flow issue rate inside a W-instruction window,
     clipped by the machine width. *)
  let ipc_dataflow =
    Trace_stats.ipc_of_window t.stats ~exec_latency:(exec_latency cfg) ~w
  in
  let ipc = Float.min ipc_dataflow (float_of_int cfg.Sim.Config.issue_width) in
  let base = 1. /. ipc in
  let events = Trace_stats.count_events t.stats cfg in
  (* Memory timing parameters of the hierarchy below the L1s. *)
  let l2_lat = float_of_int cfg.Sim.Config.l2_latency in
  let mem_lat =
    float_of_int
      (cfg.Sim.Config.dram.Sim.Dram.base_latency
      + cfg.Sim.Config.dram.Sim.Dram.bus_occupancy)
  in
  (* The out-of-order window hides part of a load miss: while the miss is
     outstanding, roughly W/ipc further cycles of independent work can
     issue behind it, bounded by half the window in practice. *)
  let hidden = 0.5 *. float_of_int w /. ipc in
  let exposed lat = Float.max 0. (lat -. hidden) in
  let branch =
    (* flush + front-end refill; resolution adds roughly the window drain *)
    float_of_int events.Trace_stats.branch_mispredicts
    *. (float_of_int cfg.Sim.Config.pipe_depth +. (0.5 /. ipc *. float_of_int w))
    /. n
  in
  let icache =
    ((float_of_int events.Trace_stats.il1_misses *. l2_lat)
    +. (float_of_int events.Trace_stats.il1_to_memory *. (l2_lat +. mem_lat)))
    /. n
  in
  let dcache_l2 =
    float_of_int events.Trace_stats.dl1_misses *. exposed l2_lat /. n
  in
  let dcache_memory =
    float_of_int events.Trace_stats.dl1_to_memory
    *. exposed (l2_lat +. mem_lat)
    /. events.Trace_stats.memory_mlp /. n
  in
  { base; branch; icache; dcache_l2; dcache_memory }

let cpi t cfg =
  let b = components t cfg in
  b.base +. b.branch +. b.icache +. b.dcache_l2 +. b.dcache_memory
