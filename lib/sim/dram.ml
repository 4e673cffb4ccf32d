type config = {
  base_latency : int;
  banks : int;
  bank_occupancy : int;
  bus_occupancy : int;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let config ~base_latency ~banks ~bank_occupancy ~bus_occupancy =
  if base_latency < 1 then invalid_arg "Dram.config: base_latency < 1";
  if not (is_pow2 banks) then invalid_arg "Dram.config: banks not power of 2";
  if bank_occupancy < 1 || bus_occupancy < 1 then
    invalid_arg "Dram.config: occupancies must be >= 1";
  { base_latency; banks; bank_occupancy; bus_occupancy }

let default_config =
  { base_latency = 150; banks = 16; bank_occupancy = 24; bus_occupancy = 4 }

type t = {
  cfg : config;
  bank_free : int array; (* earliest cycle each bank is free *)
  mutable bus_free : int;
  mutable accesses : int;
  mutable total_latency : int;
  mutable queue_cycles : int;
}

let create cfg =
  {
    cfg;
    bank_free = Array.make cfg.banks 0;
    bus_free = 0;
    accesses = 0;
    total_latency = 0;
    queue_cycles = 0;
  }

let access t ~cycle ~addr =
  (* Interleave banks on 4KB granularity so streaming accesses spread. *)
  let bank = (addr lsr 12) land (t.cfg.banks - 1) in
  let start_bank = Int.max cycle t.bank_free.(bank) in
  let device_done = start_bank + t.cfg.base_latency in
  let start_bus = Int.max device_done t.bus_free in
  let finish = start_bus + t.cfg.bus_occupancy in
  t.bank_free.(bank) <- start_bank + t.cfg.bank_occupancy;
  t.bus_free <- start_bus + t.cfg.bus_occupancy;
  t.accesses <- t.accesses + 1;
  t.total_latency <- t.total_latency + (finish - cycle);
  t.queue_cycles <-
    t.queue_cycles + (start_bank - cycle) + (start_bus - device_done);
  finish

type stats = { accesses : int; total_latency : int; queue_cycles : int }

let stats (t : t) : stats =
  {
    accesses = t.accesses;
    total_latency = t.total_latency;
    queue_cycles = t.queue_cycles;
  }

let average_latency (t : t) =
  if t.accesses = 0 then 0.
  else float_of_int t.total_latency /. float_of_int t.accesses

let reset_stats (t : t) =
  t.accesses <- 0;
  t.total_latency <- 0;
  t.queue_cycles <- 0
