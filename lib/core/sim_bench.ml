module Sim = Archpred_sim
module Obs = Archpred_obs
module Json = Archpred_obs.Json

type paper_shape = {
  paper_trace_length : int;
  paper_configs : int;
  ns_per_inst_config : float;
  cycles_crc : string;
}

let now () = Int64.to_float (Obs.now_ns ())

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
            (fun (r : Sim.Batch.result) -> string_of_int r.Sim.Batch.cycles)
            !results))
  in
  {
    paper_trace_length = trace_length;
    paper_configs = n_configs;
    ns_per_inst_config =
      !best /. float_of_int (trace_length * n_configs);
    cycles_crc = Crc32.to_hex (Crc32.string cycles);
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

let record ?(path = "BENCH_parallel.json") paper =
  (* [preserved] keeps the micro-benchmark section written by the
     Bechamel run; the two writers share BENCH_parallel.json. *)
  Bench_report.write ~path ~schema:"archpred-parallel-v1"
    (Bench_report.preserved ~path [ "results" ]
    @ [ ("sim", Json.Obj [ ("paper_shape", json_of_paper_shape paper) ]) ])
