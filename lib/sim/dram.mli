(** DRAM device timing, memory-controller queueing and bus contention.

    The paper's simulator models "DRAM device timing, queuing at the memory
    controller, and contention for the memory bus".  This module provides
    the same three effects in a compact form: each of [banks] DRAM banks is
    busy for [bank_occupancy] cycles per access (row activate + column
    access + precharge), the shared data bus is busy for [bus_occupancy]
    cycles per transfer, and requests that find their bank or the bus busy
    queue behind earlier ones — so a burst of L2 misses sees growing
    latency, which is exactly what makes small L2 configurations behave
    non-linearly. *)

type config = {
  base_latency : int;  (** unloaded access latency in CPU cycles *)
  banks : int;  (** number of independent banks; power of two *)
  bank_occupancy : int;  (** cycles a bank stays busy per access *)
  bus_occupancy : int;  (** cycles the shared bus is held per transfer *)
}

val default_config : config
