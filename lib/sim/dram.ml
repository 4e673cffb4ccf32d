type config = {
  base_latency : int;
  banks : int;
  bank_occupancy : int;
  bus_occupancy : int;
}

let default_config =
  { base_latency = 150; banks = 16; bank_occupancy = 24; bus_occupancy = 4 }
