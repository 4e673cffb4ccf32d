(* Benchmark characterization: what does each workload stress?

     dune exec examples/benchmark_characterization.exe

   Runs every synthetic SPEC stand-in on three machines (weak, default,
   strong) and prints the microarchitectural events that explain the CPI
   differences — the kind of table an architecture paper's workload
   section reports, produced here entirely by the simulator substrate. *)

module Sim = Archpred_sim
module Workloads = Archpred_workloads

let weak =
  Sim.Config.make ~pipe_depth:22 ~rob_size:32 ~iq_size:12 ~lsq_size:12
    ~l2_size:(256 * 1024) ~l2_latency:18 ~il1_size:(8 * 1024)
    ~dl1_size:(8 * 1024) ~dl1_latency:4 ()

let strong =
  Sim.Config.make ~pipe_depth:8 ~rob_size:128 ~iq_size:96 ~lsq_size:96
    ~l2_size:(8 * 1024 * 1024) ~l2_latency:6 ~il1_size:(64 * 1024)
    ~dl1_size:(64 * 1024) ~dl1_latency:1 ()

let () =
  Printf.printf "%-12s %7s %7s %7s | %6s %6s %6s %6s %7s\n" "benchmark"
    "weak" "base" "strong" "bp" "il1mr" "dl1mr" "l2mr" "dram/ki";
  print_endline (String.make 86 '-');
  List.iter
    (fun (p : Workloads.Profile.t) ->
      let trace = Workloads.Generator.generate p ~length:50_000 in
      let r =
        Sim.Batch.run_plan (Sim.Batch.plan trace)
          [| weak; Sim.Config.default; strong |]
      in
      let base_r = r.(1) in
      Printf.printf "%-12s %7.3f %7.3f %7.3f | %6.3f %6.3f %6.3f %6.3f %7.1f\n"
        p.name r.(0).cpi base_r.cpi r.(2).cpi base_r.branch_accuracy
        base_r.il1_miss_rate base_r.dl1_miss_rate base_r.l2_miss_rate
        (1000. *. float_of_int base_r.dram_accesses
        /. float_of_int base_r.instructions))
    Workloads.Spec2000.all;
  print_newline ();
  print_endline
    "weak/base/strong are CPI at three machines; bp = branch-prediction \
     accuracy;";
  print_endline
    "*mr = miss rates at the base machine; dram/ki = DRAM accesses per \
     kilo-instruction.";
  print_endline
    "Expected shape: mcf most memory-bound (largest weak/strong spread, \
     most DRAM";
  print_endline
    "traffic); crafty/vortex/perlbmk show il1 pressure; equake/ammp are \
     FP-regular."
