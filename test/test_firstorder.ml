(* Tests for archpred.firstorder: window-limited data-flow IPC, event
   counting and the first-order CPI model's mechanistic behaviour. *)

module Sim = Archpred_sim
module Opcode = Sim.Opcode
module Trace = Sim.Trace
module Trace_stats = Archpred_firstorder.Trace_stats
module Model = Archpred_firstorder.Model
module Workloads = Archpred_workloads

let inst ?(op = Opcode.Ialu) ?(dep1 = 0) ?(dep2 = 0) ?(addr = 0) ?(pc = 0)
    ?(taken = false) ?(target = 0) () : Trace.inst =
  { op; dep1; dep2; addr; pc; taken; target }

let unit_latency _ = 1

let test_ipc_independent () =
  (* no dependencies: a window of w drains in one latency, IPC = w *)
  let t = Trace.of_array (Array.init 640 (fun i -> inst ~pc:(4 * i) ())) in
  let s = Trace_stats.analyse t in
  let ipc = Trace_stats.ipc_of_window s ~exec_latency:unit_latency ~w:64 in
  Alcotest.(check bool) "ipc = w" true (abs_float (ipc -. 64.) < 1.)

let test_ipc_serial_chain () =
  (* every instruction depends on its predecessor: IPC -> 1 *)
  let t =
    Trace.of_array
      (Array.init 640 (fun i -> inst ~dep1:(min i 1) ~pc:(4 * i) ()))
  in
  let s = Trace_stats.analyse t in
  let ipc = Trace_stats.ipc_of_window s ~exec_latency:unit_latency ~w:64 in
  Alcotest.(check bool) "ipc near 1" true (ipc > 0.9 && ipc < 1.2)

let test_ipc_monotone_in_window () =
  let trace =
    Workloads.Generator.generate Workloads.Spec2000.crafty ~length:5_000
  in
  let s = Trace_stats.analyse trace in
  let ipc w = Trace_stats.ipc_of_window s ~exec_latency:unit_latency ~w in
  Alcotest.(check bool) "bigger window >= smaller" true (ipc 128 >= ipc 16 -. 1e-9)

let test_ipc_latency_hurts () =
  let trace =
    Workloads.Generator.generate Workloads.Spec2000.equake ~length:5_000
  in
  let s = Trace_stats.analyse trace in
  let slow op = if Opcode.uses_fp op then 8 else 1 in
  let fast = Trace_stats.ipc_of_window s ~exec_latency:unit_latency ~w:64 in
  let slowed = Trace_stats.ipc_of_window s ~exec_latency:slow ~w:64 in
  Alcotest.(check bool) "higher latency lowers ipc" true (slowed < fast)

let test_events_counted () =
  let trace =
    Workloads.Generator.generate Workloads.Spec2000.mcf ~length:20_000
  in
  let s = Trace_stats.analyse trace in
  let e = Trace_stats.count_events s Sim.Config.default in
  Alcotest.(check bool) "loads counted" true (e.Trace_stats.load_count > 3_000);
  Alcotest.(check bool) "some mispredicts" true (e.Trace_stats.branch_mispredicts > 0);
  Alcotest.(check bool) "mlp >= 1" true (e.Trace_stats.memory_mlp >= 1.)

let test_events_shrink_with_cache () =
  let trace =
    Workloads.Generator.generate Workloads.Spec2000.mcf ~length:20_000
  in
  let s = Trace_stats.analyse trace in
  let small =
    Sim.Config.make ~pipe_depth:14 ~rob_size:80 ~iq_size:40 ~lsq_size:40
      ~l2_size:(256 * 1024) ~l2_latency:12 ~il1_size:(8 * 1024)
      ~dl1_size:(8 * 1024) ~dl1_latency:2 ()
  in
  let e_small = Trace_stats.count_events s small in
  let e_big = Trace_stats.count_events s Sim.Config.default in
  Alcotest.(check bool) "bigger dl1 fewer misses" true
    (e_big.Trace_stats.dl1_misses + e_big.Trace_stats.dl1_to_memory
    < e_small.Trace_stats.dl1_misses + e_small.Trace_stats.dl1_to_memory)

let test_model_positive_and_decomposed () =
  let trace =
    Workloads.Generator.generate Workloads.Spec2000.twolf ~length:10_000
  in
  let m = Model.create trace in
  let b = Model.components m Sim.Config.default in
  Alcotest.(check bool) "base positive" true (b.Model.base > 0.);
  Alcotest.(check bool) "components nonnegative" true
    (b.Model.branch >= 0. && b.Model.icache >= 0. && b.Model.dcache_l2 >= 0.
   && b.Model.dcache_memory >= 0.);
  let total = Model.cpi m Sim.Config.default in
  Alcotest.(check (float 1e-9)) "cpi = sum"
    (b.Model.base +. b.Model.branch +. b.Model.icache +. b.Model.dcache_l2
   +. b.Model.dcache_memory)
    total

let test_model_mechanistic_trends () =
  let trace =
    Workloads.Generator.generate Workloads.Spec2000.mcf ~length:20_000
  in
  let m = Model.create trace in
  let with_l2 size =
    Sim.Config.make ~pipe_depth:14 ~rob_size:80 ~iq_size:40 ~lsq_size:40
      ~l2_size:size ~l2_latency:12 ~il1_size:(32 * 1024)
      ~dl1_size:(32 * 1024) ~dl1_latency:2 ()
  in
  Alcotest.(check bool) "smaller L2 raises predicted CPI" true
    (Model.cpi m (with_l2 (256 * 1024)) > Model.cpi m (with_l2 (8 * 1024 * 1024)));
  let with_depth d =
    Sim.Config.make ~pipe_depth:d ~rob_size:80 ~iq_size:40 ~lsq_size:40
      ~l2_size:(2 * 1024 * 1024) ~l2_latency:12 ~il1_size:(32 * 1024)
      ~dl1_size:(32 * 1024) ~dl1_latency:2 ()
  in
  Alcotest.(check bool) "deeper pipe raises predicted CPI" true
    (Model.cpi m (with_depth 24) > Model.cpi m (with_depth 7))

let test_model_ballpark () =
  (* the analytical model should land within a factor of two of the
     simulator at a mid-range configuration *)
  let trace =
    Workloads.Generator.generate Workloads.Spec2000.parser ~length:20_000
  in
  let m = Model.create trace in
  let predicted = Model.cpi m Sim.Config.default in
  let simulated = (Sim.Batch.cpi [| Sim.Config.default |] trace).(0) in
  let ratio = predicted /. simulated in
  Alcotest.(check bool) "within 2x" true (ratio > 0.5 && ratio < 2.)

let () =
  Alcotest.run "firstorder"
    [
      ( "ipc_of_window",
        [
          Alcotest.test_case "independent ops" `Quick test_ipc_independent;
          Alcotest.test_case "serial chain" `Quick test_ipc_serial_chain;
          Alcotest.test_case "monotone in window" `Quick test_ipc_monotone_in_window;
          Alcotest.test_case "latency hurts" `Quick test_ipc_latency_hurts;
        ] );
      ( "events",
        [
          Alcotest.test_case "counted" `Quick test_events_counted;
          Alcotest.test_case "shrink with cache" `Quick test_events_shrink_with_cache;
        ] );
      ( "model",
        [
          Alcotest.test_case "positive decomposition" `Quick test_model_positive_and_decomposed;
          Alcotest.test_case "mechanistic trends" `Quick test_model_mechanistic_trends;
          Alcotest.test_case "ballpark accuracy" `Quick test_model_ballpark;
        ] );
    ]
