(* Tests for archpred.sim: opcodes, traces, caches, branch prediction,
   configurations and the cycle-level pipeline itself (hand-built traces
   with known behaviour, through the batched engine production runs);
   the reference engine's DRAM, memory hierarchy and functional units;
   and the batched engine held bit for bit to that reference. *)

module Sim = Archpred_sim
module Opcode = Sim.Opcode
module Trace = Sim.Trace
module Cache = Sim.Cache
module Bp = Sim.Branch_predictor
module Dram = Sim_oracle.Dram
module Memory = Sim_oracle.Memory
module Fu = Sim_oracle.Fu_pool
module Config = Sim.Config
module Batch = Sim.Batch
module Processor = Sim_oracle.Processor

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* [configs] through a fresh plan of [trace]; the oracle properties'
   names call it [Batch.run]. *)
let run_batch ?max_cycles ?warm ?domains configs trace =
  Batch.run_plan ?max_cycles ?warm ?domains (Batch.plan trace) configs

(* One config through the batched engine. *)
let simulate ?warm cfg trace = (run_batch ?warm [| cfg |] trace).(0)

let inst ?(op = Opcode.Ialu) ?(dep1 = 0) ?(dep2 = 0) ?(addr = 0) ?(pc = 0)
    ?(taken = false) ?(target = 0) () : Trace.inst =
  { op; dep1; dep2; addr; pc; taken; target }

(* A trace of [n] identical instructions with sequential PCs. *)
let uniform_trace ?(op = Opcode.Ialu) ?(dep1 = 0) n =
  Trace.of_array
    (Array.init n (fun i -> inst ~op ~dep1:(if i = 0 then 0 else dep1) ~pc:(4 * i) ()))

(* ---------- Opcode ---------- *)

let test_opcode_roundtrip () =
  List.iter
    (fun o ->
      Alcotest.(check bool) "roundtrip" true (Opcode.of_int (Opcode.to_int o) = o))
    Opcode.all

let test_opcode_classes () =
  Alcotest.(check bool) "load is memory" true (Opcode.is_memory Opcode.Load);
  Alcotest.(check bool) "branch is control" true (Opcode.is_control Opcode.Branch);
  Alcotest.(check bool) "fadd uses fp" true (Opcode.uses_fp Opcode.Fadd);
  Alcotest.(check bool) "ialu not memory" false (Opcode.is_memory Opcode.Ialu)

let test_opcode_of_int_invalid () =
  Alcotest.check_raises "bad code" (Invalid_argument "Opcode.of_int: 99")
    (fun () -> ignore (Opcode.of_int 99))

(* ---------- Trace ---------- *)

let test_trace_builder () =
  let b = Trace.Builder.create ~capacity:2 () in
  for i = 0 to 99 do
    Trace.Builder.add b (inst ~pc:(4 * i) ~addr:i ())
  done;
  let t = Trace.Builder.finish b in
  Alcotest.(check int) "length" 100 (Trace.length t);
  Alcotest.(check int) "addr" 42 (Trace.addr t 42);
  Alcotest.(check int) "pc" 168 (Trace.pc t 42)

let test_trace_accessors () =
  let t =
    Trace.of_list
      [
        inst ~op:Opcode.Load ~dep1:0 ~addr:64 ~pc:0 ();
        inst ~op:Opcode.Branch ~dep1:1 ~pc:4 ~taken:true ~target:100 ();
      ]
  in
  Alcotest.(check bool) "op" true (Trace.op t 0 = Opcode.Load);
  Alcotest.(check int) "dep1" 1 (Trace.dep1 t 1);
  Alcotest.(check bool) "taken" true (Trace.taken t 1);
  Alcotest.(check int) "target" 100 (Trace.target t 1);
  let i = Trace.get t 1 in
  Alcotest.(check bool) "get op" true (i.Trace.op = Opcode.Branch)

let test_trace_validate_ok () =
  let t = uniform_trace 10 in
  Alcotest.(check bool) "valid" true (Trace.validate t = Ok ())

let test_trace_validate_bad_dep () =
  let t = Trace.of_list [ inst ~dep1:0 (); inst ~dep1:5 ~pc:4 () ] in
  match Trace.validate t with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected invalid dep"

let test_trace_validate_misaligned () =
  let t = Trace.of_list [ inst ~pc:3 () ] in
  match Trace.validate t with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected misaligned pc"

(* ---------- Cache ---------- *)

let cache_cfg ?(size = 1024) ?(line = 64) ?(assoc = 2) ?(latency = 2) () =
  Cache.config ~size_bytes:size ~line_bytes:line ~associativity:assoc
    ~latency ()

let test_cache_cold_miss_then_hit () =
  let c = Cache.create (cache_cfg ()) in
  Alcotest.(check bool) "cold miss" false (Cache.access c 0);
  Alcotest.(check bool) "hit" true (Cache.access c 0);
  Alcotest.(check bool) "same line hit" true (Cache.access c 63);
  Alcotest.(check bool) "next line miss" false (Cache.access c 64)

let test_cache_lru_eviction () =
  (* 2-way, single set: three conflicting lines evict the LRU *)
  let c = Cache.create (cache_cfg ~size:(64 * 2) ~assoc:2 ()) in
  ignore (Cache.access c 0);
  ignore (Cache.access c 64);
  ignore (Cache.access c 0) (* touch 0: 64 becomes LRU *);
  ignore (Cache.access c 128) (* evicts 64 *);
  Alcotest.(check bool) "0 still present" true (Cache.probe c 0);
  Alcotest.(check bool) "64 evicted" false (Cache.probe c 64);
  Alcotest.(check bool) "128 present" true (Cache.probe c 128)

let test_cache_associativity () =
  let c = Cache.create (cache_cfg ~size:64 ~assoc:1 ()) in
  ignore (Cache.access c 0);
  ignore (Cache.access c 64);
  Alcotest.(check bool) "direct-mapped thrash" false (Cache.probe c 0)

let test_cache_stats () =
  let c = Cache.create (cache_cfg ()) in
  ignore (Cache.access c 0);
  ignore (Cache.access c 0);
  ignore (Cache.access c 64);
  let s = Cache.stats c in
  Alcotest.(check int) "accesses" 3 s.Cache.accesses;
  Alcotest.(check int) "misses" 2 s.Cache.misses;
  Alcotest.(check (float 1e-9)) "miss rate" (2. /. 3.) (Cache.miss_rate c);
  Cache.reset_stats c;
  Alcotest.(check int) "reset" 0 (Cache.stats c).Cache.accesses

let test_cache_non_pow2_sets () =
  let c = Cache.create (cache_cfg ~size:(3 * 64 * 2) ~assoc:2 ()) in
  Alcotest.(check int) "sets" 3 (Cache.sets c);
  ignore (Cache.access c 0);
  ignore (Cache.access c (3 * 64));
  Alcotest.(check bool) "both fit 2 ways" true
    (Cache.probe c 0 && Cache.probe c (3 * 64))

let test_cache_invalidate () =
  let c = Cache.create (cache_cfg ()) in
  ignore (Cache.access c 0);
  Cache.invalidate_all c;
  Alcotest.(check bool) "invalidated" false (Cache.probe c 0)

let test_cache_config_invalid () =
  Alcotest.check_raises "bad line"
    (Invalid_argument "Cache.config: line size not a power of two") (fun () ->
      ignore
        (Cache.config ~size_bytes:1024 ~line_bytes:48 ~associativity:2
           ~latency:1 ()))

(* ---------- Branch predictor ---------- *)

let test_bp_learns_bias () =
  let bp = Bp.create Bp.default_config in
  for _ = 1 to 50 do
    Bp.update bp ~pc:64 ~taken:true ~target:128
  done;
  let p = Bp.predict bp ~pc:64 in
  Alcotest.(check bool) "predicts taken" true p.Bp.direction;
  Alcotest.(check bool) "btb knows target" true p.Bp.target_known

let test_bp_mispredict_counting () =
  let bp = Bp.create Bp.default_config in
  for _ = 1 to 20 do
    Bp.update bp ~pc:64 ~taken:true ~target:128
  done;
  Alcotest.(check bool) "trained: no mispredict" false
    (Bp.mispredicted bp ~kind:Bp.Conditional ~pc:64 ~taken:true);
  Alcotest.(check bool) "surprise not-taken" true
    (Bp.mispredicted bp ~kind:Bp.Conditional ~pc:64 ~taken:false);
  let s = Bp.stats bp in
  Alcotest.(check int) "lookups" 2 s.Bp.lookups;
  Alcotest.(check int) "mispredicts" 1 s.Bp.mispredicts

let test_bp_indirect_btb_miss () =
  let bp = Bp.create Bp.default_config in
  Alcotest.(check bool) "btb miss" true
    (Bp.mispredicted bp ~kind:Bp.Indirect ~pc:256 ~taken:true);
  Bp.update bp ~pc:256 ~taken:true ~target:512;
  Alcotest.(check bool) "btb hit" false
    (Bp.mispredicted bp ~kind:Bp.Indirect ~pc:256 ~taken:true)

let test_bp_accuracy () =
  let bp = Bp.create Bp.default_config in
  for _ = 1 to 10 do
    ignore (Bp.mispredicted bp ~kind:Bp.Conditional ~pc:0 ~taken:true);
    Bp.update bp ~pc:0 ~taken:true ~target:64
  done;
  Alcotest.(check bool) "accuracy reasonable" true (Bp.accuracy bp >= 0.8)

let test_bp_config_validation () =
  Alcotest.check_raises "bad btb"
    (Invalid_argument "Branch_predictor.config: btb_entries not a power of two")
    (fun () -> ignore (Bp.config ~history_bits:10 ~btb_entries:1000 ()))

(* ---------- DRAM ---------- *)

let dram_cfg =
  { Dram.base_latency = 100; banks = 4; bank_occupancy = 20; bus_occupancy = 4 }

let test_dram_unloaded_latency () =
  let d = Dram.create dram_cfg in
  let finish = Dram.access d ~cycle:10 ~addr:0 in
  Alcotest.(check int) "unloaded" (10 + 100 + 4) finish

let test_dram_bank_conflict () =
  let d = Dram.create dram_cfg in
  let f1 = Dram.access d ~cycle:0 ~addr:0 in
  let f2 = Dram.access d ~cycle:0 ~addr:64 in
  Alcotest.(check bool) "second delayed" true (f2 > f1)

let test_dram_bank_parallelism () =
  let d = Dram.create dram_cfg in
  let f1 = Dram.access d ~cycle:0 ~addr:0 in
  let f2 = Dram.access d ~cycle:0 ~addr:(1 lsl 12) in
  Alcotest.(check int) "bus-only delay" (f1 + 4) f2

let test_dram_stats () =
  let d = Dram.create dram_cfg in
  ignore (Dram.access d ~cycle:0 ~addr:0);
  ignore (Dram.access d ~cycle:0 ~addr:64);
  let s = Dram.stats d in
  Alcotest.(check int) "accesses" 2 s.Dram.accesses;
  Alcotest.(check bool) "queue cycles counted" true (s.Dram.queue_cycles > 0);
  Alcotest.(check bool) "avg latency >= base" true
    (Dram.average_latency d >= 100.)

(* ---------- Memory hierarchy ---------- *)

let mem_cfg ?l2_prefetch () =
  Memory.create ?l2_prefetch
    ~il1:(cache_cfg ~size:1024 ~latency:1 ())
    ~dl1:(cache_cfg ~size:1024 ~latency:2 ())
    ~l2:(cache_cfg ~size:8192 ~assoc:4 ~latency:10 ())
    ~dram:dram_cfg ()

let test_memory_l1_hit () =
  let m = mem_cfg () in
  ignore (Memory.load m ~cycle:0 ~addr:0);
  Alcotest.(check int) "dl1 hit at 2" 102 (Memory.load m ~cycle:100 ~addr:0)

let test_memory_l2_hit () =
  let m = mem_cfg () in
  ignore (Memory.load m ~cycle:0 ~addr:0);
  (* dl1 here has 8 sets of 2 ways; these three lines share set 0 *)
  ignore (Memory.load m ~cycle:0 ~addr:1024);
  ignore (Memory.load m ~cycle:0 ~addr:2048);
  Alcotest.(check int) "l2 hit" (100 + 2 + 10) (Memory.load m ~cycle:100 ~addr:0)

let test_memory_dram_path () =
  let m = mem_cfg () in
  let t = Memory.load m ~cycle:0 ~addr:0 in
  Alcotest.(check int) "cold load" (2 + 10 + 100 + 4) t

let test_memory_store_fills () =
  let m = mem_cfg () in
  Memory.store m ~cycle:0 ~addr:0;
  Alcotest.(check int) "load hits after store" 2 (Memory.load m ~cycle:0 ~addr:0)


let test_prefetch_helps_streaming () =
  (* a pure streaming load pattern: next-line prefetch turns most L2
     misses into hits *)
  let insts =
    Array.init 6_000 (fun i ->
        if i mod 3 = 0 then inst ~op:Opcode.Load ~addr:(i / 3 * 24) ~pc:(4 * (i mod 256)) ()
        else inst ~pc:(4 * (i mod 256)) ())
  in
  let trace = Trace.of_array insts in
  let cfg_of prefetch =
    { (Config.make ~pipe_depth:12 ~rob_size:64 ~iq_size:32 ~lsq_size:32
         ~l2_size:(256 * 1024) ~l2_latency:10 ~il1_size:(32 * 1024)
         ~dl1_size:(8 * 1024) ~dl1_latency:2 ())
      with Config.l2_prefetch = prefetch }
  in
  let off = (simulate ~warm:false (cfg_of false) trace).Batch.cpi in
  let on = (simulate ~warm:false (cfg_of true) trace).Batch.cpi in
  Alcotest.(check bool) "prefetch reduces streaming CPI" true (on < off)

let test_prefetch_default_off () =
  Alcotest.(check bool) "off by default" false Config.default.Config.l2_prefetch

(* ---------- FU pool ---------- *)

let test_fu_pipelined_width () =
  let fu = Fu.create Fu.default_config in
  for _ = 1 to 4 do
    Alcotest.(check bool) "grant" true (Fu.try_issue fu ~cycle:0 Fu.Int_alu)
  done;
  Alcotest.(check bool) "5th refused" false (Fu.try_issue fu ~cycle:0 Fu.Int_alu);
  Alcotest.(check bool) "next cycle ok" true (Fu.try_issue fu ~cycle:1 Fu.Int_alu);
  Alcotest.(check int) "refusals" 1 (Fu.structural_stalls fu)

let test_fu_unpipelined_busy () =
  let fu = Fu.create Fu.default_config in
  Alcotest.(check bool) "div grant" true (Fu.try_issue fu ~cycle:0 Fu.Int_div);
  Alcotest.(check bool) "div busy" false (Fu.try_issue fu ~cycle:5 Fu.Int_div);
  let lat = Fu.latency Fu.default_config Fu.Int_div in
  Alcotest.(check bool) "free after latency" true
    (Fu.try_issue fu ~cycle:lat Fu.Int_div)

let test_fu_class_mapping () =
  Alcotest.(check bool) "load uses port" true
    (Fu.class_of_opcode Opcode.Load = Some Fu.Mem_port);
  Alcotest.(check bool) "nop uses nothing" true
    (Fu.class_of_opcode Opcode.Nop = None);
  Alcotest.(check bool) "branch on alu" true
    (Fu.class_of_opcode Opcode.Branch = Some Fu.Int_alu)

(* ---------- Config ---------- *)

let test_config_validation () =
  Alcotest.(check bool) "default valid" true (Config.validate Config.default = Ok ());
  Alcotest.check_raises "iq > rob"
    (Invalid_argument "Config.make: iq_size outside [1, rob_size]") (fun () ->
      ignore
        (Config.make ~pipe_depth:10 ~rob_size:32 ~iq_size:64 ~lsq_size:16
           ~l2_size:(1 lsl 20) ~l2_latency:10 ~il1_size:8192 ~dl1_size:8192
           ~dl1_latency:2 ()))

let test_config_size_rounding () =
  let c =
    Config.make ~pipe_depth:10 ~rob_size:32 ~iq_size:16 ~lsq_size:16
      ~l2_size:1_000_000 ~l2_latency:10 ~il1_size:9_000 ~dl1_size:9_000
      ~dl1_latency:2 ()
  in
  Alcotest.(check int) "l2 whole sets" 0 (c.Config.l2_size mod (64 * 8));
  Alcotest.(check int) "il1 whole sets" 0 (c.Config.il1_size mod (64 * 2));
  Alcotest.(check bool) "close to request" true
    (abs (c.Config.l2_size - 1_000_000) < 64 * 8)

(* ---------- Pipeline behaviour (batched engine) ---------- *)

(* What the model does runs on the engine production uses; determinism
   and the cycle limit here are the oracle's own unit tests ([batch]
   has the engine's). *)

(* warm caches: these throughput tests target the pipeline, not cold
   compulsory misses *)
let run_cpi ?cfg trace =
  let cfg = match cfg with Some c -> c | None -> Config.default in
  (simulate ~warm:true cfg trace).Batch.cpi

let test_processor_ilp_throughput () =
  let trace = uniform_trace 4000 in
  let cpi = run_cpi trace in
  Alcotest.(check bool) "cpi near 0.25" true (cpi < 0.35 && cpi >= 0.25)

let test_processor_serial_chain () =
  let trace = uniform_trace ~dep1:1 4000 in
  let cpi = run_cpi trace in
  Alcotest.(check bool) "cpi near 1" true (cpi > 0.9 && cpi < 1.2)

let test_processor_determinism () =
  let trace =
    Archpred_workloads.Generator.generate Archpred_workloads.Spec2000.parser
      ~length:5_000
  in
  let a = Processor.run Config.default trace in
  let b = Processor.run Config.default trace in
  Alcotest.(check int) "same cycles" a.Batch.cycles b.Batch.cycles

let test_processor_dl1_latency_monotone () =
  let trace =
    Archpred_workloads.Generator.generate Archpred_workloads.Spec2000.twolf
      ~length:8_000
  in
  let cpi_at lat =
    let cfg =
      Config.make ~pipe_depth:12 ~rob_size:64 ~iq_size:32 ~lsq_size:32
        ~l2_size:(2 lsl 20) ~l2_latency:10 ~il1_size:(32 * 1024)
        ~dl1_size:(32 * 1024) ~dl1_latency:lat ()
    in
    (simulate cfg trace).Batch.cpi
  in
  Alcotest.(check bool) "dl1 latency hurts" true (cpi_at 4 > cpi_at 1)

let test_processor_mispredict_penalty_scales () =
  let rng = Archpred_stats.Rng.create 3 in
  let insts =
    Array.init 8_000 (fun i ->
        if i mod 4 = 3 then
          inst ~op:Opcode.Branch ~pc:(4 * (i mod 64))
            ~taken:(Archpred_stats.Rng.bool rng)
            ~target:(4 * ((i + 1) mod 64))
            ()
        else inst ~pc:(4 * (i mod 64)) ())
  in
  let trace = Trace.of_array insts in
  let cpi_at depth =
    let cfg =
      Config.make ~pipe_depth:depth ~rob_size:64 ~iq_size:32 ~lsq_size:32
        ~l2_size:(2 lsl 20) ~l2_latency:10 ~il1_size:(32 * 1024)
        ~dl1_size:(32 * 1024) ~dl1_latency:2 ()
    in
    (simulate cfg trace).Batch.cpi
  in
  Alcotest.(check bool) "deep pipe worse" true (cpi_at 24 > cpi_at 7 +. 0.1)

let test_processor_rob_size_helps_mlp () =
  let insts =
    Array.init 4_000 (fun i ->
        if i mod 4 = 0 then
          inst ~op:Opcode.Load ~addr:(i * 8192) ~pc:(4 * i) ()
        else inst ~pc:(4 * i) ())
  in
  let trace = Trace.of_array insts in
  let cpi_at rob =
    let cfg =
      Config.make ~pipe_depth:12 ~rob_size:rob ~iq_size:(rob / 2)
        ~lsq_size:(rob / 2) ~l2_size:(1 lsl 18) ~l2_latency:10
        ~il1_size:(32 * 1024) ~dl1_size:(8 * 1024) ~dl1_latency:2 ()
    in
    (simulate ~warm:false cfg trace).Batch.cpi
  in
  Alcotest.(check bool) "bigger rob helps" true (cpi_at 128 < cpi_at 16 -. 0.2)

let test_processor_store_forwarding () =
  let insts =
    Array.init 2_000 (fun i ->
        match i mod 2 with
        | 0 -> inst ~op:Opcode.Store ~addr:((i / 2) * 65536) ~pc:(4 * i) ()
        | _ -> inst ~op:Opcode.Load ~addr:((i / 2) * 65536) ~pc:(4 * i) ())
  in
  let trace = Trace.of_array insts in
  let r = simulate ~warm:true Config.default trace in
  Alcotest.(check bool) "forwarding keeps cpi low" true (r.Batch.cpi < 3.)

let test_processor_commits_everything () =
  let trace = uniform_trace 1234 in
  let r = simulate Config.default trace in
  Alcotest.(check int) "all committed" 1234 r.Batch.instructions;
  Alcotest.(check bool) "cycles positive" true (r.Batch.cycles > 0)

let test_processor_cycle_limit () =
  let trace = uniform_trace 100 in
  Alcotest.(check bool) "raises" true
    (match Processor.run ~max_cycles:3 Config.default trace with
    | exception Batch.Cycle_limit_exceeded _ -> true
    | _ -> false)

let test_processor_occupancies_bounded () =
  let trace =
    Archpred_workloads.Generator.generate Archpred_workloads.Spec2000.mcf
      ~length:5_000
  in
  let cfg = Config.default in
  let r = simulate cfg trace in
  Alcotest.(check bool) "rob occ within size" true
    (r.Batch.avg_rob_occupancy <= float_of_int cfg.Config.rob_size);
  Alcotest.(check bool) "iq occ within size" true
    (r.Batch.avg_iq_occupancy <= float_of_int cfg.Config.iq_size);
  Alcotest.(check bool) "lsq occ within size" true
    (r.Batch.avg_lsq_occupancy <= float_of_int cfg.Config.lsq_size)

let prop_processor_never_faster_than_width =
  qtest ~count:10 "CPI >= 1/fetch_width" QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let trace =
        Archpred_workloads.Generator.generate ~seed
          Archpred_workloads.Spec2000.crafty ~length:2_000
      in
      let r = simulate Config.default trace in
      r.Batch.cpi >= 1. /. float_of_int Config.default.Config.fetch_width)



(* ---------- Trace_io ---------- *)

let test_trace_io_roundtrip () =
  let trace =
    Archpred_workloads.Generator.generate Archpred_workloads.Spec2000.mcf
      ~length:2_000
  in
  let path = Filename.temp_file "archpred" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Sim.Trace_io.save trace path;
      let loaded = Sim.Trace_io.load path in
      Alcotest.(check int) "length" (Trace.length trace) (Trace.length loaded);
      let same = ref true in
      for i = 0 to Trace.length trace - 1 do
        if Trace.get trace i <> Trace.get loaded i then same := false
      done;
      Alcotest.(check bool) "identical instructions" true !same;
      (* identical timing too *)
      Alcotest.(check int) "same cycles"
        (simulate Config.default trace).Batch.cycles
        (simulate Config.default loaded).Batch.cycles)

let test_trace_io_rejects_garbage () =
  let path = Filename.temp_file "archpred" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "not a trace\n";
      close_out oc;
      Alcotest.(check bool) "garbage fails" true
        (match Sim.Trace_io.load path with
        | exception
            Archpred_obs.Error.Archpred (Archpred_obs.Error.Parse_error _) ->
            true
        | _ -> false))

let test_trace_io_rejects_bad_fields () =
  let path = Filename.temp_file "archpred" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "archpred-trace 1\nialu zero 0 0 0 0 0\n";
      close_out oc;
      Alcotest.(check bool) "bad int fails" true
        (match Sim.Trace_io.load path with
        | exception
            Archpred_obs.Error.Archpred (Archpred_obs.Error.Parse_error _) ->
            true
        | _ -> false))

(* [load] on [bytes] gives a trace or a typed error, never another
   exception. *)
let trace_io_total bytes =
  let path = Filename.temp_file "archpred" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc bytes);
      match Sim.Trace_io.load path with
      | _ -> true
      | exception Archpred_obs.Error.Archpred _ -> true)

let test_trace_io_every_prefix () =
  let trace =
    Archpred_workloads.Generator.generate Archpred_workloads.Spec2000.mcf
      ~length:40
  in
  let path = Filename.temp_file "archpred" ".trace" in
  let full =
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Sim.Trace_io.save trace path;
        In_channel.with_open_bin path In_channel.input_all)
  in
  for cut = 0 to String.length full do
    if not (trace_io_total (String.sub full 0 cut)) then
      Alcotest.failf "trace prefix %d raised an untyped exception" cut
  done

(* Soup over the format's own alphabet reaches the field parsers and the
   validator, not just the header check. *)
let trace_io_byte_soup =
  qtest ~count:300 "byte soup gives a trace or a typed error"
    QCheck2.Gen.(
      oneof
        [
          string_size ~gen:(char_range '\x00' '\xff') (int_range 0 256);
          map
            (fun body -> "archpred-trace 1\n" ^ body)
            (string_size
               ~gen:(oneofl [ '0'; '1'; '4'; '-'; ' '; '\n'; 'i'; 'a'; 'l'; 'u' ])
               (int_range 0 256));
        ])
    trace_io_total

(* ---------- Power ---------- *)

let power_of cfg trace =
  Sim.Power.estimate cfg (simulate cfg trace)

let test_power_positive () =
  let trace =
    Archpred_workloads.Generator.generate Archpred_workloads.Spec2000.mcf
      ~length:5_000
  in
  let p = power_of Config.default trace in
  Alcotest.(check bool) "dynamic positive" true (p.Sim.Power.dynamic > 0.);
  Alcotest.(check bool) "leakage positive" true (p.Sim.Power.leakage > 0.);
  Alcotest.(check (float 1e-9)) "total = dyn + leak"
    (p.Sim.Power.dynamic +. p.Sim.Power.leakage)
    p.Sim.Power.total

let test_power_bigger_caches_cost_more () =
  let trace =
    Archpred_workloads.Generator.generate Archpred_workloads.Spec2000.crafty
      ~length:5_000
  in
  let with_l2 size =
    Config.make ~pipe_depth:14 ~rob_size:80 ~iq_size:40 ~lsq_size:40
      ~l2_size:size ~l2_latency:12 ~il1_size:(32 * 1024)
      ~dl1_size:(32 * 1024) ~dl1_latency:2 ()
  in
  let small = power_of (with_l2 (256 * 1024)) trace in
  let big = power_of (with_l2 (8 * 1024 * 1024)) trace in
  (* a big L2 leaks more; its energy per instruction should be higher for a
     workload that rarely misses anyway *)
  Alcotest.(check bool) "bigger L2 leaks more" true
    (big.Sim.Power.leakage > small.Sim.Power.leakage)

let test_power_edp_consistent () =
  let trace =
    Archpred_workloads.Generator.generate Archpred_workloads.Spec2000.twolf
      ~length:5_000
  in
  let r = simulate Config.default trace in
  let p = Sim.Power.estimate Config.default r in
  Alcotest.(check (float 1e-9)) "edp = epi * cpi"
    (p.Sim.Power.energy_per_instruction *. r.Batch.cpi)
    p.Sim.Power.energy_delay_product

(* ---------- predictor schemes ---------- *)

let scheme_cfg scheme =
  Bp.config ~scheme ~history_bits:12 ~btb_entries:1024 ()

let train_pattern bp pattern reps =
  List.iter
    (fun _ ->
      List.iter
        (fun taken ->
          ignore (Bp.mispredicted bp ~kind:Bp.Conditional ~pc:64 ~taken);
          Bp.update bp ~pc:64 ~taken ~target:128)
        pattern)
    (List.init reps Fun.id)

let test_bimodal_learns_bias () =
  let bp = Bp.create (scheme_cfg Bp.Bimodal) in
  train_pattern bp [ true ] 40;
  Alcotest.(check bool) "high accuracy" true (Bp.accuracy bp > 0.9)

let test_local_learns_period () =
  (* pattern T T T N repeating: local history disambiguates, bimodal
     cannot do better than 75% *)
  let local = Bp.create (scheme_cfg Bp.Local) in
  train_pattern local [ true; true; true; false ] 200;
  let bimodal = Bp.create (scheme_cfg Bp.Bimodal) in
  train_pattern bimodal [ true; true; true; false ] 200;
  Alcotest.(check bool) "local beats bimodal on periodic" true
    (Bp.accuracy local > Bp.accuracy bimodal);
  Alcotest.(check bool) "local near perfect" true (Bp.accuracy local > 0.9)

let test_tournament_not_worse () =
  let trace =
    Archpred_workloads.Generator.generate Archpred_workloads.Spec2000.twolf
      ~length:20_000
  in
  let accuracy scheme =
    let bp = Bp.create (scheme_cfg scheme) in
    for i = 0 to Trace.length trace - 1 do
      if Trace.op trace i = Opcode.Branch then begin
        ignore
          (Bp.mispredicted bp ~kind:Bp.Conditional ~pc:(Trace.pc trace i)
             ~taken:(Trace.taken trace i));
        Bp.update bp ~pc:(Trace.pc trace i) ~taken:(Trace.taken trace i)
          ~target:(Trace.target trace i)
      end
    done;
    Bp.accuracy bp
  in
  let t = accuracy Bp.Tournament in
  let b = accuracy Bp.Bimodal in
  (* the tournament should be at least roughly as good as bimodal alone *)
  Alcotest.(check bool) "tournament competitive" true (t >= b -. 0.03)

(* ---------- Batched multi-config simulation ---------- *)

(* A deterministic spread of valid configs covering ROB/queue sizes,
   pipe depths and cache geometries. *)
let batch_configs b salt =
  Array.init b (fun k ->
      let j = salt + (7 * k) in
      let rob = 16 + (8 * (j mod 9)) in
      Config.make
        ~pipe_depth:(7 + (j mod 12))
        ~rob_size:rob
        ~iq_size:(max 1 (rob / 2))
        ~lsq_size:(max 1 (rob / 2))
        ~l2_size:((1 lsl 17) + (65536 * (j mod 8)))
        ~l2_latency:(8 + (j mod 6))
        ~il1_size:(8192 lsl (j mod 3))
        ~dl1_size:(8192 lsl (j mod 3))
        ~dl1_latency:(1 + (j mod 4))
        ())

let results_equal (a : Batch.result) (b : Batch.result) =
  let feq x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
  a.Batch.instructions = b.Batch.instructions
  && a.Batch.cycles = b.Batch.cycles
  && a.Batch.dram_accesses = b.Batch.dram_accesses
  && a.Batch.dispatch_stall_rob = b.Batch.dispatch_stall_rob
  && a.Batch.dispatch_stall_iq = b.Batch.dispatch_stall_iq
  && a.Batch.dispatch_stall_lsq = b.Batch.dispatch_stall_lsq
  && a.Batch.fetch_stall_icache = b.Batch.fetch_stall_icache
  && a.Batch.fetch_stall_branch = b.Batch.fetch_stall_branch
  && feq a.Batch.cpi b.Batch.cpi
  && feq a.Batch.branch_accuracy b.Batch.branch_accuracy
  && feq a.Batch.il1_miss_rate b.Batch.il1_miss_rate
  && feq a.Batch.dl1_miss_rate b.Batch.dl1_miss_rate
  && feq a.Batch.l2_miss_rate b.Batch.l2_miss_rate
  && feq a.Batch.dram_avg_latency b.Batch.dram_avg_latency
  && feq a.Batch.avg_rob_occupancy b.Batch.avg_rob_occupancy
  && feq a.Batch.avg_iq_occupancy b.Batch.avg_iq_occupancy
  && feq a.Batch.avg_lsq_occupancy b.Batch.avg_lsq_occupancy

let check_batch_vs_reference ?(warm = true) ?domains msg configs trace =
  let batch = run_batch ~warm ?domains configs trace in
  Array.iteri
    (fun i cfg ->
      let reference = Processor.run ~warm cfg trace in
      if not (results_equal reference batch.(i)) then
        Alcotest.failf "%s: config %d diverges:@.ref   %a@.batch %a" msg i
          Batch.pp_result reference Batch.pp_result batch.(i))
    configs

let test_batch_bit_identity () =
  List.iter
    (fun b ->
      let trace =
        Archpred_workloads.Generator.generate ~seed:(40 + b)
          Archpred_workloads.Spec2000.mcf ~length:2_000
      in
      check_batch_vs_reference
        (Printf.sprintf "batch size %d" b)
        (batch_configs b b) trace)
    [ 1; 7; 16; 64 ]

let test_batch_bit_identity_cold () =
  let trace =
    Archpred_workloads.Generator.generate ~seed:11
      Archpred_workloads.Spec2000.crafty ~length:2_000
  in
  check_batch_vs_reference ~warm:false "cold batch" (batch_configs 7 3) trace

let test_batch_domain_independence () =
  let trace =
    Archpred_workloads.Generator.generate ~seed:5
      Archpred_workloads.Spec2000.twolf ~length:2_000
  in
  let configs = batch_configs 16 1 in
  let one = run_batch ~domains:1 configs trace in
  let four = run_batch ~domains:4 configs trace in
  Array.iteri
    (fun i r ->
      Alcotest.(check bool)
        (Printf.sprintf "config %d domain-independent" i)
        true (results_equal r four.(i)))
    one;
  check_batch_vs_reference ~domains:4 "4 domains vs reference" configs trace

let test_batch_plan_reuse () =
  let trace =
    Archpred_workloads.Generator.generate ~seed:2
      Archpred_workloads.Spec2000.parser ~length:1_500
  in
  let p = Batch.plan trace in
  Alcotest.(check int) "plan length" 1_500 (Batch.length p);
  let configs = batch_configs 4 9 in
  let r1 = Batch.run_plan p configs in
  let r2 = Batch.run_plan p configs in
  Array.iteri
    (fun i r ->
      Alcotest.(check bool)
        (Printf.sprintf "run %d reusable" i)
        true (results_equal r r2.(i)))
    r1

let test_batch_cycle_limit () =
  let trace = uniform_trace 100 in
  Alcotest.(check bool) "raises like the reference" true
    (match run_batch ~max_cycles:3 [| Config.default |] trace with
    | exception Batch.Cycle_limit_exceeded 4 -> true
    | _ -> false)

let test_batch_empty () =
  let trace = uniform_trace 10 in
  Alcotest.(check int) "no configs" 0 (Array.length (run_batch [||] trace))

let test_batch_invalid_config () =
  let trace = uniform_trace 10 in
  let d = Config.default in
  let fu = d.Config.fu in
  List.iter
    (fun (name, bad) ->
      Alcotest.(check bool) (name ^ " rejected") true
        (match run_batch [| d; bad |] trace with
        | exception Invalid_argument _ -> true
        | _ -> false))
    [
      ("tiny rob", { d with Config.rob_size = 1 });
      ("negative unit count", { d with Config.fu = { fu with Fu.int_div = (-1, 20) } });
      ("zero unit latency", { d with Config.fu = { fu with Fu.int_alu = (4, 0) } });
      ("no dram bank", { d with Config.dram = { d.Config.dram with Dram.banks = 0 } });
      ("12 dram banks", { d with Config.dram = { d.Config.dram with Dram.banks = 12 } });
      ("l2 not whole sets", { d with Config.l2_size = d.Config.l2_size + 64 });
    ]

(* Runs where a mispredicted branch resolves after the last fetch: the
   quiet-cycle skip once ran past the fetch resume point and kept
   counting branch stalls (seed 106/parser config 3 gave 206 against the
   reference's 205, seed 338/mcf config 1 461 against 457). *)
let test_batch_fetch_stall_tail () =
  List.iter
    (fun (seed, profile, cfg) ->
      let trace = Archpred_workloads.Generator.generate ~seed profile ~length:1_000 in
      let config = (batch_configs 5 seed).(cfg) in
      check_batch_vs_reference (Printf.sprintf "seed %d config %d" seed cfg) [| config |] trace)
    [ (106, Archpred_workloads.Spec2000.parser, 3); (338, Archpred_workloads.Spec2000.mcf, 1) ]

let prop_batch_bit_identity =
  qtest ~count:12 "Batch.run == Processor.run (random traces)"
    QCheck2.Gen.(pair (int_range 0 1000) (int_range 0 3))
    (fun (seed, pidx) ->
      let profile =
        [|
          Archpred_workloads.Spec2000.mcf;
          Archpred_workloads.Spec2000.crafty;
          Archpred_workloads.Spec2000.twolf;
          Archpred_workloads.Spec2000.parser;
        |].(pidx)
      in
      let trace =
        Archpred_workloads.Generator.generate ~seed profile ~length:1_000
      in
      let configs = batch_configs 5 seed in
      let batch = run_batch configs trace in
      Array.for_all2
        (fun cfg r -> results_equal (Processor.run cfg trace) r)
        configs batch)

(* Functional units away from the default: 1-3 units per class (so 2-3
   unpipelined dividers) with latencies 1-20, over mcf, crafty and a
   crafty variant dense in divides so that the dividers' unit choice is
   exercised, warm and cold. *)
let gen_fu =
  let unit_spec = QCheck2.Gen.(pair (int_range 1 3) (int_range 1 20)) in
  QCheck2.Gen.(
    map
      (fun l ->
        match l with
        | [ int_alu; int_mul; int_div; fp_add; fp_mul; fp_div; mem_port ] ->
            { Fu.int_alu; int_mul; int_div; fp_add; fp_mul; fp_div;
              mem_port }
        | _ -> assert false)
      (list_repeat 7 unit_spec))

let prop_batch_functional_units =
  qtest ~count:20 "Batch.run == Processor.run (functional units)"
    QCheck2.Gen.(
      quad (int_range 0 1000) (int_range 0 2) bool (pair gen_fu gen_fu))
    (fun (seed, pidx, warm, (fu_a, fu_b)) ->
      let crafty = Archpred_workloads.Spec2000.crafty in
      let profile =
        [|
          Archpred_workloads.Spec2000.mcf;
          crafty;
          {
            crafty with
            Archpred_workloads.Profile.idiv_frac = 0.10;
            fmul_frac = 0.05;
            fdiv_frac = 0.05;
          };
        |].(pidx)
      in
      let trace =
        Archpred_workloads.Generator.generate ~seed profile ~length:1_500
      in
      let configs =
        Array.mapi
          (fun k cfg -> { cfg with Config.fu = (if k mod 2 = 0 then fu_a else fu_b) })
          (batch_configs 4 seed)
      in
      let batch = run_batch ~warm configs trace in
      Array.for_all2
        (fun cfg r -> results_equal (Processor.run ~warm cfg trace) r)
        configs batch)

(* Configs across the Table 1 ranges: pipe depth 7-24, ROB 24-128, L2
   256 KiB-8 MiB (384 KiB, 3 MiB and 5 MiB give 768, 6144 and 10240
   sets, and a 24 KiB L1 gives 192), all four replacement policies, the
   next-line L2 prefetch on and off, and three branch predictors mixed
   within the batch so the shared mispredict streams are exercised. *)
let table1_configs b salt =
  let kb n = n * 1024 in
  let l2_sizes = [| kb 256; kb 384; kb 1024; kb 3072; kb 5120; kb 8192 |] in
  let l1_sizes = [| kb 8; kb 24; kb 32; kb 64 |] in
  let predictors =
    [|
      Bp.default_config;
      Bp.config ~scheme:Bp.Bimodal ~history_bits:10 ~btb_entries:512 ();
      Bp.config ~scheme:Bp.Tournament ~history_bits:12 ~btb_entries:1024 ();
    |]
  in
  Array.init b (fun k ->
      let j = salt + (5 * k) in
      let rob = 24 + (j * 13 mod 105) in
      let cfg =
        Config.make
          ~pipe_depth:(7 + (j * 7 mod 18))
          ~rob_size:rob
          ~iq_size:(max 4 (rob * (1 + (j mod 3)) / 4))
          ~lsq_size:(max 4 (rob * (1 + ((j / 3) mod 3)) / 4))
          ~l2_size:l2_sizes.(j mod 6)
          ~l2_latency:(5 + (j mod 16))
          ~il1_size:l1_sizes.(j mod 4)
          ~dl1_size:l1_sizes.((j / 4) mod 4)
          ~dl1_latency:(1 + (j mod 4))
          ()
      in
      {
        cfg with
        Config.l2_prefetch = (j / 2) mod 2 = 0;
        branch = predictors.(k mod 3);
      })

let prop_batch_table1 =
  qtest ~count:16 "Batch.run == Processor.run (Table 1 space, prefetch)"
    QCheck2.Gen.(quad (int_range 0 1000) (int_range 0 3) bool (int_range 1 2))
    (fun (seed, pidx, warm, domains) ->
      let profile =
        [|
          Archpred_workloads.Spec2000.mcf;
          Archpred_workloads.Spec2000.crafty;
          Archpred_workloads.Spec2000.twolf;
          Archpred_workloads.Spec2000.parser;
        |].(pidx)
      in
      let trace =
        Archpred_workloads.Generator.generate ~seed profile ~length:1_500
      in
      let configs = table1_configs 6 seed in
      let batch = run_batch ~warm ~domains configs trace in
      Array.for_all2
        (fun cfg r -> results_equal (Processor.run ~warm cfg trace) r)
        configs batch)

(* One batch mixing predictor configurations (repeated, so streams are
   shared between non-adjacent configs), at one and two domains, warm
   and cold. *)
let test_batch_mixed_predictors () =
  let trace =
    Archpred_workloads.Generator.generate ~seed:23
      Archpred_workloads.Spec2000.vortex ~length:2_000
  in
  let configs = table1_configs 9 4 in
  List.iter
    (fun (warm, domains) ->
      check_batch_vs_reference ~warm ~domains
        (Printf.sprintf "mixed predictors warm=%b domains=%d" warm domains)
        configs trace)
    [ (true, 1); (true, 2); (false, 1); (false, 2) ]

(* One plan serves many batches: the mispredict streams it keeps from
   earlier calls, whatever their predictors, warm-up and domain count,
   give every later call the results of a fresh plan. *)
let test_batch_plan_streams_reused () =
  let trace =
    Archpred_workloads.Generator.generate ~seed:31
      (Option.get (Archpred_workloads.Spec2000_extra.find "perlbmk"))
      ~length:2_000
  in
  let shared = Batch.plan trace in
  let configs = table1_configs 9 7 in
  let calls =
    [ ([| 0; 1; 2 |], true, 1); ([| 3; 4 |], false, 2); ([| 5; 0; 7; 8 |], true, 2);
      ([| 1; 6; 3 |], false, 1); ([| 2; 4; 8 |], true, 1); (Array.init 9 Fun.id, false, 2) ]
  in
  List.iteri
    (fun call (picks, warm, domains) ->
      let cfgs = Array.map (fun i -> configs.(i)) picks in
      let reused = Batch.run_plan ~warm ~domains shared cfgs in
      let fresh = Batch.run_plan ~warm ~domains (Batch.plan trace) cfgs in
      Array.iteri
        (fun i r ->
          if not (results_equal r fresh.(i)) then
            Alcotest.failf "call %d (warm=%b, %d domains), config %d: reused plan diverges" call warm
              domains picks.(i))
        reused)
    calls

(* A batch in which exactly one config runs past the cycle limit: the
   batch raises that config's exception, at the reference's count, and
   the limit is no obstacle to the others. *)
let test_batch_one_over_limit () =
  let trace =
    Archpred_workloads.Generator.generate ~seed:8
      Archpred_workloads.Spec2000.crafty ~length:1_500
  in
  let fast = table1_configs 4 2 in
  let slow =
    {
      (Config.make ~pipe_depth:24 ~rob_size:24 ~iq_size:6 ~lsq_size:6
         ~l2_size:(256 * 1024) ~l2_latency:20 ~il1_size:8192 ~dl1_size:8192
         ~dl1_latency:4 ())
      with
      Config.fetch_width = 1;
      issue_width = 1;
      commit_width = 1;
    }
  in
  let configs = [| fast.(0); fast.(1); slow; fast.(2); fast.(3) |] in
  List.iter
    (fun (warm, domains) ->
      let cycles =
        Array.map (fun cfg -> (Processor.run ~warm cfg trace).Batch.cycles) configs
      in
      let slow_cycles = cycles.(2) in
      let slowest_fast =
        Array.fold_left max 0 [| cycles.(0); cycles.(1); cycles.(3); cycles.(4) |]
      in
      Alcotest.(check bool) "slow config is slowest" true (slow_cycles > slowest_fast + 2);
      let limit = (slow_cycles + slowest_fast) / 2 in
      let expected =
        match Processor.run ~warm ~max_cycles:limit slow trace with
        | exception Batch.Cycle_limit_exceeded c -> c
        | _ -> Alcotest.fail "reference did not hit the limit"
      in
      Array.iteri
        (fun i cfg ->
          if i <> 2 then ignore (Processor.run ~warm ~max_cycles:limit cfg trace))
        configs;
      match run_batch ~warm ~domains ~max_cycles:limit configs trace with
      | exception Batch.Cycle_limit_exceeded c ->
          Alcotest.(check int)
            (Printf.sprintf "limit count warm=%b domains=%d" warm domains)
            expected c
      | _ -> Alcotest.fail "batch did not hit the limit")
    [ (true, 1); (true, 2); (false, 1); (false, 2) ]

(* The attribution counters: their results are [run_plan]'s, and the
   cycles stepped one by one plus those jumped over are every cycle. *)
let test_batch_counters () =
  let trace =
    Archpred_workloads.Generator.generate ~seed:9
      Archpred_workloads.Spec2000.mcf ~length:1_500
  in
  let p = Batch.plan trace in
  let configs = table1_configs 5 1 in
  let counted = Batch.run_plan_counted p configs in
  Array.iteri
    (fun i (r, (c : Batch.counters)) ->
      let name = Printf.sprintf "config %d" i in
      Alcotest.(check bool) (name ^ ": same result") true
        (results_equal r (Batch.run_plan p [| configs.(i) |]).(0));
      Alcotest.(check int) (name ^ ": stepped + skipped = cycles")
        r.Batch.cycles
        (c.Batch.cycles_stepped + c.Batch.cycles_skipped);
      Alcotest.(check bool) (name ^ ": every level accessed") true
        (c.Batch.il1_accesses > 0 && c.Batch.dl1_accesses > 0
        && c.Batch.l2_accesses > 0 && c.Batch.issue_attempts > 0))
    counted

(* A class with no units never issues, so the run deadlocks on its
   first instruction of that class and must reach the cycle limit at
   the reference's count, though its attempts keep failing (the engine
   may jump over such cycles).  Both a pipelined and an unpipelined
   class, warm and cold. *)
let test_batch_zero_units () =
  let trace =
    Archpred_workloads.Generator.generate ~seed:3
      Archpred_workloads.Spec2000.crafty ~length:600
  in
  let fu = Fu.default_config in
  List.iter
    (fun (name, fu, warm) ->
      let cfg = { Config.default with Config.fu } in
      let outcome f =
        match f () with
        | exception Batch.Cycle_limit_exceeded c -> Some c
        | _ -> None
      in
      let reference =
        outcome (fun () -> Processor.run ~warm ~max_cycles:4000 cfg trace)
      in
      Alcotest.(check bool) (name ^ ": reference deadlocks") true
        (reference <> None);
      Alcotest.(check (option int)) name reference
        (outcome (fun () -> run_batch ~warm ~max_cycles:4000 [| cfg |] trace)))
    [
      ("no multiplier", { fu with Fu.int_mul = (0, 3) }, true);
      ("no integer divider", { fu with Fu.int_div = (0, 20) }, false);
    ]

let () =
  Alcotest.run "sim"
    [
      ( "opcode",
        [
          Alcotest.test_case "roundtrip" `Quick test_opcode_roundtrip;
          Alcotest.test_case "classes" `Quick test_opcode_classes;
          Alcotest.test_case "invalid code" `Quick test_opcode_of_int_invalid;
        ] );
      ( "trace",
        [
          Alcotest.test_case "builder growth" `Quick test_trace_builder;
          Alcotest.test_case "accessors" `Quick test_trace_accessors;
          Alcotest.test_case "validate ok" `Quick test_trace_validate_ok;
          Alcotest.test_case "validate bad dep" `Quick test_trace_validate_bad_dep;
          Alcotest.test_case "validate misaligned" `Quick test_trace_validate_misaligned;
        ] );
      ( "cache",
        [
          Alcotest.test_case "cold miss then hit" `Quick test_cache_cold_miss_then_hit;
          Alcotest.test_case "lru eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "associativity" `Quick test_cache_associativity;
          Alcotest.test_case "stats" `Quick test_cache_stats;
          Alcotest.test_case "non-pow2 sets" `Quick test_cache_non_pow2_sets;
          Alcotest.test_case "invalidate" `Quick test_cache_invalidate;
          Alcotest.test_case "config validation" `Quick test_cache_config_invalid;
        ] );
      ( "batch",
        [
          Alcotest.test_case "bit identity {1,7,16,64}" `Quick test_batch_bit_identity;
          Alcotest.test_case "bit identity cold" `Quick test_batch_bit_identity_cold;
          Alcotest.test_case "domain independence" `Quick test_batch_domain_independence;
          Alcotest.test_case "plan reuse" `Quick test_batch_plan_reuse;
          Alcotest.test_case "cycle limit" `Quick test_batch_cycle_limit;
          Alcotest.test_case "empty batch" `Quick test_batch_empty;
          Alcotest.test_case "invalid config" `Quick test_batch_invalid_config;
          Alcotest.test_case "fetch stall at trace end" `Quick test_batch_fetch_stall_tail;
          Alcotest.test_case "mixed predictors" `Quick test_batch_mixed_predictors;
          Alcotest.test_case "plan keeps its streams" `Quick test_batch_plan_streams_reused;
          Alcotest.test_case "one config over the limit" `Quick test_batch_one_over_limit;
          Alcotest.test_case "zero-unit class hits the limit" `Quick test_batch_zero_units;
          Alcotest.test_case "attribution counters" `Quick test_batch_counters;
          prop_batch_bit_identity;
          prop_batch_functional_units;
          prop_batch_table1;
        ] );
      ( "branch_predictor",
        [
          Alcotest.test_case "learns bias" `Quick test_bp_learns_bias;
          Alcotest.test_case "mispredict counting" `Quick test_bp_mispredict_counting;
          Alcotest.test_case "indirect btb miss" `Quick test_bp_indirect_btb_miss;
          Alcotest.test_case "accuracy" `Quick test_bp_accuracy;
          Alcotest.test_case "config validation" `Quick test_bp_config_validation;
        ] );
      ( "dram",
        [
          Alcotest.test_case "unloaded latency" `Quick test_dram_unloaded_latency;
          Alcotest.test_case "bank conflict" `Quick test_dram_bank_conflict;
          Alcotest.test_case "bank parallelism" `Quick test_dram_bank_parallelism;
          Alcotest.test_case "stats" `Quick test_dram_stats;
        ] );
      ( "memory",
        [
          Alcotest.test_case "l1 hit" `Quick test_memory_l1_hit;
          Alcotest.test_case "l2 hit" `Quick test_memory_l2_hit;
          Alcotest.test_case "dram path" `Quick test_memory_dram_path;
          Alcotest.test_case "store fills" `Quick test_memory_store_fills;
          Alcotest.test_case "prefetch helps streaming" `Quick test_prefetch_helps_streaming;
          Alcotest.test_case "prefetch default off" `Quick test_prefetch_default_off;
        ] );
      ( "fu_pool",
        [
          Alcotest.test_case "pipelined width" `Quick test_fu_pipelined_width;
          Alcotest.test_case "unpipelined busy" `Quick test_fu_unpipelined_busy;
          Alcotest.test_case "class mapping" `Quick test_fu_class_mapping;
        ] );
      ( "config",
        [
          Alcotest.test_case "validation" `Quick test_config_validation;
          Alcotest.test_case "size rounding" `Quick test_config_size_rounding;
        ] );
      ( "trace_io",
        [
          Alcotest.test_case "roundtrip" `Quick test_trace_io_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_trace_io_rejects_garbage;
          Alcotest.test_case "rejects bad fields" `Quick test_trace_io_rejects_bad_fields;
          Alcotest.test_case "every prefix is typed" `Quick
            test_trace_io_every_prefix;
          trace_io_byte_soup;
        ] );
      ( "power",
        [
          Alcotest.test_case "positive decomposition" `Quick test_power_positive;
          Alcotest.test_case "bigger caches leak more" `Quick test_power_bigger_caches_cost_more;
          Alcotest.test_case "edp consistent" `Quick test_power_edp_consistent;
        ] );
      ( "predictor_schemes",
        [
          Alcotest.test_case "bimodal bias" `Quick test_bimodal_learns_bias;
          Alcotest.test_case "local periodic" `Quick test_local_learns_period;
          Alcotest.test_case "tournament competitive" `Quick test_tournament_not_worse;
        ] );
      ( "processor",
        [
          Alcotest.test_case "ILP throughput" `Quick test_processor_ilp_throughput;
          Alcotest.test_case "serial chain" `Quick test_processor_serial_chain;
          Alcotest.test_case "determinism" `Quick test_processor_determinism;
          Alcotest.test_case "dl1 latency monotone" `Quick test_processor_dl1_latency_monotone;
          Alcotest.test_case "mispredict penalty scales" `Quick test_processor_mispredict_penalty_scales;
          Alcotest.test_case "rob enables mlp" `Quick test_processor_rob_size_helps_mlp;
          Alcotest.test_case "store forwarding" `Quick test_processor_store_forwarding;
          Alcotest.test_case "commits everything" `Quick test_processor_commits_everything;
          Alcotest.test_case "cycle limit" `Quick test_processor_cycle_limit;
          Alcotest.test_case "occupancies bounded" `Quick test_processor_occupancies_bounded;
          prop_processor_never_faster_than_width;
        ] );
    ]
