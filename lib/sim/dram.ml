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
