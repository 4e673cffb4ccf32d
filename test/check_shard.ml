(* Run-directory smoke test over the real binary: a 2-worker
   `archpred train --shards` run — with one worker killed mid-unit by an
   injected fault and respawned by the coordinator — and a one-worker
   `archpred train --checkpoint DIR` run must each save a model
   byte-identical to the single-process run's.  Rerunning the
   checkpointed command resumes the finished directory; the same
   directory under another seed is refused with the parse-error exit
   code. *)

(* archpred-analyze: allow exit -- check harness failure path *)
let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let read_file path = In_channel.with_open_bin path In_channel.input_all

let status ?fault argv =
  let env =
    match fault with
    | None -> Unix.environment ()
    | Some spec ->
        Array.append (Unix.environment ())
          [| "ARCHPRED_SHARD_FAULT=" ^ spec |]
  in
  let pid =
    Unix.create_process_env argv.(0) argv env Unix.stdin Unix.stdout
      Unix.stderr
  in
  snd (Unix.waitpid [] pid)

let run ?fault argv =
  match status ?fault argv with
  | Unix.WEXITED 0 -> ()
  | status ->
      let what =
        match status with
        | Unix.WEXITED c -> Printf.sprintf "exit %d" c
        | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
        | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s
      in
      fail "check_shard: %s failed (%s)" argv.(1) what

let () =
  let archpred = Sys.argv.(1) in
  (* 40 test points make three test units at the default unit size, so
     both workers claim a unit as soon as they start: a run of tiny units
     could otherwise finish in one worker before the other claims any. *)
  let common =
    [|
      archpred; "train"; "-b"; "crafty"; "-n"; "20"; "--trace-length"; "2000";
      "--seed"; "7"; "--test-points"; "40";
    |]
  in
  run (Array.append common [| "--save"; "shard_smoke_single.model" |]);
  (* Worker w0 dies permanently at its first claimed unit; the
     coordinator must respawn it (fresh id, so the replacement is not
     re-armed) and the merged model must not change. *)
  run
    ~fault:"w0:shard.unit:1:sticky"
    (Array.append common
       [|
         "--shards"; "2"; "--checkpoint"; "shard_smoke_run"; "--save";
         "shard_smoke_sharded.model";
       |]);
  let single = read_file "shard_smoke_single.model" in
  if not (String.equal single (read_file "shard_smoke_sharded.model")) then
    fail "check_shard: sharded model differs from the single-process model";
  let checkpointed =
    Array.append common
      [|
        "--checkpoint"; "shard_smoke_checkpoint"; "--save";
        "shard_smoke_checkpoint.model";
      |]
  in
  (* The second run finds every unit committed and only reassembles. *)
  run checkpointed;
  run checkpointed;
  if not (String.equal single (read_file "shard_smoke_checkpoint.model")) then
    fail "check_shard: checkpointed model differs from the single-process model";
  let other_seed = Array.copy checkpointed in
  other_seed.(9) <- "8";
  (match status other_seed with
  | Unix.WEXITED 5 -> ()
  | _ -> fail "check_shard: a run directory of another seed was not refused");
  print_endline
    "ok: 2-worker sharded train (one worker killed mid-unit) and \
     checkpointed train are byte-identical to the single-process model"
