(* Bring your own trace: file I/O and profile extraction.

     dune exec examples/custom_trace.exe

   The simulator is trace-driven, so any tool that can emit the simple
   text format of Sim.Trace_io can drive it.  This example:
     1. writes a trace to disk and reads it back (what an external
        tracer would produce);
     2. simulates it at two machines;
     3. extracts a statistical profile from it (the statistical-simulation
        workflow) and checks the regenerated clone against the original. *)

module Sim = Archpred_sim
module Workloads = Archpred_workloads

let () =
  (* Stand in for an externally produced trace. *)
  let original =
    Workloads.Generator.generate Workloads.Spec2000.parser ~length:30_000
  in
  let path = Filename.temp_file "archpred" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Sim.Trace_io.save original path;
      Printf.printf "wrote %d instructions to %s (%d bytes)\n"
        (Sim.Trace.length original) path (Unix.stat path).Unix.st_size;
      let trace = Sim.Trace_io.load path in

      let weak =
        Sim.Config.make ~pipe_depth:20 ~rob_size:40 ~iq_size:16 ~lsq_size:16
          ~l2_size:(512 * 1024) ~l2_latency:16 ~il1_size:(16 * 1024)
          ~dl1_size:(16 * 1024) ~dl1_latency:3 ()
      in
      let cpi = Sim.Batch.cpi [| Sim.Config.default; weak |] trace in
      Printf.printf "\nsimulated CPI: default %.3f, weak machine %.3f\n"
        cpi.(0) cpi.(1);

      (* Statistical simulation: profile the trace, regenerate a clone. *)
      let profile = Workloads.Extractor.profile_of_trace ~name:"clone" trace in
      Format.printf "\nextracted profile:@.%a@." Workloads.Profile.pp profile;
      let clone = Workloads.Generator.generate ~seed:7 profile ~length:30_000 in
      Printf.printf "\noriginal vs clone CPI at the default machine: %.3f vs %.3f\n"
        cpi.(0)
        (Sim.Batch.cpi [| Sim.Config.default |] clone).(0))
