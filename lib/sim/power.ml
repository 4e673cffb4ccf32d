type t = {
  dynamic : float;
  leakage : float;
  total : float;
  energy_per_instruction : float;
  energy_delay_product : float;
}

(* Per-access energy of an array structure: grows with the square root of
   its capacity (wordline/bitline scaling), normalised so a 32KB cache
   costs ~1 unit per access. *)
let array_access_energy bytes = sqrt (float_of_int bytes /. 32768.)

(* CAM-style structures (issue queue wakeup) scale linearly with entries. *)
let cam_access_energy entries = float_of_int entries /. 32.

let estimate (cfg : Config.t) (r : Batch.result) =
  let insts = float_of_int r.Batch.instructions in
  let cycles = float_of_int r.Batch.cycles in
  (* Event counts reconstructed from rates. *)
  let il1_accesses = insts /. 4. (* roughly one line probe per fetch group *) in
  let dl1_accesses = insts *. 0.35 (* memory-op share upper bound *) in
  let l2_accesses =
    (il1_accesses *. r.Batch.il1_miss_rate)
    +. (dl1_accesses *. r.Batch.dl1_miss_rate)
  in
  let dram_accesses = float_of_int r.Batch.dram_accesses in
  let dynamic =
    (il1_accesses *. array_access_energy cfg.Config.il1_size)
    +. (dl1_accesses *. array_access_energy cfg.Config.dl1_size)
    +. (l2_accesses *. (2. *. array_access_energy cfg.Config.l2_size))
    +. (dram_accesses *. 40.)
    (* front end: fetch/decode/rename energy grows with depth *)
    +. (insts *. 0.2 *. float_of_int cfg.Config.pipe_depth /. 14.)
    (* window: wakeup/select per issued instruction *)
    +. (insts *. cam_access_energy cfg.Config.iq_size)
    (* ROB and LSQ read/write per instruction *)
    +. (insts *. 0.5 *. array_access_energy (64 * cfg.Config.rob_size))
    +. (insts *. 0.2 *. array_access_energy (64 * cfg.Config.lsq_size))
    (* predictor lookup per fetch group *)
    +. (il1_accesses *. 0.25)
  in
  let leakage =
    cycles
    *. ((array_access_energy cfg.Config.il1_size
        +. array_access_energy cfg.Config.dl1_size
        +. array_access_energy cfg.Config.l2_size)
        *. 0.02
       +. (float_of_int (cfg.Config.rob_size + cfg.Config.iq_size + cfg.Config.lsq_size)
          *. 0.001))
  in
  let total = dynamic +. leakage in
  let epi = total /. insts in
  {
    dynamic;
    leakage;
    total;
    energy_per_instruction = epi;
    energy_delay_product = epi *. r.Batch.cpi;
  }
