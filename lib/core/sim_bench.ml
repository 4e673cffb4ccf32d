module Sim = Archpred_sim
module Obs = Archpred_obs
module Json = Archpred_obs.Json

type rate = {
  name : string;
  policy : string;
  cpi : float;
  inst_per_sec : float;
}

type speedup = {
  batch : int;
  sequential_s : float;
  batched_s : float;
  speedup : float;
}

type paper_shape = {
  paper_trace_length : int;
  paper_configs : int;
  ns_per_inst_config : float;
  cycles_crc : string;
}

type result = {
  trace_length : int;
  n_configs : int;
  rates : rate list;
  speedups : speedup list;
  bit_identical : bool;
}

(* A deterministic spread of configurations covering every replacement
   policy and a range of pipeline/window/cache shapes — the same spread
   the batch bit-identity tests walk. *)
let configs n =
  Array.init n (fun k ->
      let j = 3 + (7 * k) in
      let rob = 16 + (8 * (j mod 9)) in
      Sim.Config.make
        ~cache_policy:Sim.Cache.Policy.all.(j mod 4)
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

let now () = Int64.to_float (Obs.now_ns ())

let results_identical (a : Sim.Processor.result) (b : Sim.Processor.result) =
  let feq x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
  a.Sim.Processor.instructions = b.Sim.Processor.instructions
  && a.Sim.Processor.cycles = b.Sim.Processor.cycles
  && feq a.Sim.Processor.cpi b.Sim.Processor.cpi
  && feq a.Sim.Processor.branch_accuracy b.Sim.Processor.branch_accuracy

(* The paper build's per-config engine cost on its own: the Table 2
   test box over the paper-sized mcf trace, on one domain so the figure
   excludes scheduling.  Best of [reps] timed runs; the cycle CRC pins
   that a faster engine simulates the same thing. *)
let paper_shape ?(trace_length = 60_000) ?(n_configs = 64) ?(reps = 3) () =
  let trace =
    Archpred_workloads.Generator.generate ~seed:7
      Archpred_workloads.Spec2000.mcf ~length:trace_length
  in
  let cfgs =
    Array.map Paper_space.to_config
      (Paper_space.test_points (Archpred_stats.Rng.create 7) ~n:n_configs)
  in
  let plan = Sim.Batch.plan trace in
  let best = ref infinity and results = ref [||] in
  for _ = 1 to reps do
    let t0 = now () in
    results := Sim.Batch.run_plan ~domains:1 plan cfgs;
    best := Float.min !best (now () -. t0)
  done;
  let cycles =
    String.concat ","
      (Array.to_list
         (Array.map
            (fun (r : Sim.Processor.result) -> string_of_int r.Sim.Processor.cycles)
            !results))
  in
  {
    paper_trace_length = trace_length;
    paper_configs = n_configs;
    ns_per_inst_config =
      !best /. float_of_int (trace_length * n_configs);
    cycles_crc = Crc32.to_hex (Crc32.string cycles);
  }

let run ?(trace_length = 20_000) ?(n_configs = 16) ?(batches = [ 1; 4; 16 ]) ()
    =
  if trace_length < 1 then
    Obs.Error.invalid_input ~where:"Sim_bench.run" "trace_length < 1";
  if n_configs < 1 then
    Obs.Error.invalid_input ~where:"Sim_bench.run" "n_configs < 1";
  List.iter
    (fun b ->
      if b < 1 || b > n_configs then
        Obs.Error.invalid_input ~where:"Sim_bench.run"
          "batch size outside [1, n_configs]")
    batches;
  let trace =
    Archpred_workloads.Generator.generate ~seed:7
      Archpred_workloads.Spec2000.mcf ~length:trace_length
  in
  let cfgs = configs n_configs in
  let plan = Sim.Batch.plan trace in
  (* Warm-up: touch both paths once so neither pays first-run costs. *)
  ignore (Sim.Processor.run cfgs.(0) trace);
  ignore (Sim.Batch.run_plan plan [| cfgs.(0) |]);
  (* Sequential reference: each config through [Processor.run], timed
     individually — the per-config inst/s rows and the baseline the
     batched engine is compared against. *)
  let seq_times = Array.make n_configs 0. in
  let reference =
    Array.mapi
      (fun i cfg ->
        let t0 = now () in
        let r = Sim.Processor.run cfg trace in
        seq_times.(i) <- (now () -. t0) /. 1e9;
        r)
      cfgs
  in
  let rates =
    List.init n_configs (fun i ->
        {
          name = Printf.sprintf "config_%02d" i;
          policy = Sim.Cache.Policy.to_string cfgs.(i).Sim.Config.cache_policy;
          cpi = reference.(i).Sim.Processor.cpi;
          inst_per_sec = float_of_int trace_length /. seq_times.(i);
        })
  in
  let identical = ref true in
  let speedups =
    List.map
      (fun b ->
        let sub = Array.sub cfgs 0 b in
        let t0 = now () in
        let batched = Sim.Batch.run_plan plan sub in
        let batched_s = (now () -. t0) /. 1e9 in
        Array.iteri
          (fun i r ->
            if not (results_identical r reference.(i)) then identical := false)
          batched;
        let sequential_s =
          Array.fold_left ( +. ) 0. (Array.sub seq_times 0 b)
        in
        { batch = b; sequential_s; batched_s; speedup = sequential_s /. batched_s })
      batches
  in
  {
    trace_length;
    n_configs;
    rates;
    speedups;
    bit_identical = !identical;
  }

let json_of_paper_shape p =
  Json.Obj
    [
      ("trace_length", Json.Int p.paper_trace_length);
      ("n_configs", Json.Int p.paper_configs);
      ("domains", Json.Int 1);
      ("ns_per_inst_config", Json.Float p.ns_per_inst_config);
      ("cycles_crc", Json.String p.cycles_crc);
    ]

let json_of_result ?paper r =
  Json.Obj
    ([
      ("trace_length", Json.Int r.trace_length);
      ("n_configs", Json.Int r.n_configs);
      ( "rates",
        Json.List
          (List.map
             (fun c ->
               Json.Obj
                 [
                   ("name", Json.String c.name);
                   ("policy", Json.String c.policy);
                   ("cpi", Json.Float c.cpi);
                   ("inst_per_sec", Json.Float c.inst_per_sec);
                 ])
             r.rates) );
      ( "speedups",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("batch", Json.Int s.batch);
                   ("sequential_s", Json.Float s.sequential_s);
                   ("batched_s", Json.Float s.batched_s);
                   ("speedup", Json.Float s.speedup);
                 ])
             r.speedups) );
      ("bit_identical", Json.Bool r.bit_identical);
    ]
    @
    match paper with
    | Some p -> [ ("paper_shape", json_of_paper_shape p) ]
    | None -> [])

let record ?(path = "BENCH_parallel.json") ?paper r =
  (* [preserved] keeps the micro-benchmark section written by the
     Bechamel run; the two writers share BENCH_parallel.json. *)
  Bench_report.write ~path ~schema:"archpred-parallel-v1"
    (Bench_report.preserved ~path [ "results" ]
    @ [ ("sim", json_of_result ?paper r) ])
