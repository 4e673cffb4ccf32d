(* Run-directory smoke test over the real binary.

   - A checkpointed `archpred train --checkpoint DIR` at two domains is
     killed with SIGKILL once its journal holds a committed unit; the
     rerun of the same command must save a model byte-identical to the
     single-process run's.  Rerunning it again resumes the finished
     directory, and the same directory under another seed is refused
     with the parse-error exit code (5).
   - A second process on a run directory another live process is
     building in must be refused within 2 s (the lock on DIR/lock), and
     the first process's model must still be byte-identical. *)

let children = ref []

let fail fmt =
  Printf.ksprintf
    (fun m ->
      List.iter
        (fun pid ->
          try
            Unix.kill pid Sys.sigkill;
            ignore (Unix.waitpid [] pid)
          with Unix.Unix_error _ -> ())
        !children;
      prerr_endline ("check_shard: " ^ m);
      (* archpred-analyze: allow exit -- check harness failure path *)
      exit 1)
    fmt

let read_file path = In_channel.with_open_bin path In_channel.input_all

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (_, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let describe = function
  | Unix.WEXITED c -> Printf.sprintf "exit %d" c
  | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s

let env = Array.append (Unix.environment ()) [| "ARCHPRED_DOMAINS=2" |]

let start argv =
  let pid =
    Unix.create_process_env argv.(0) argv env Unix.stdin Unix.stdout
      Unix.stderr
  in
  children := pid :: !children;
  pid

let wait pid =
  let status = snd (Unix.waitpid [] pid) in
  children := List.filter (( <> ) pid) !children;
  status

let run argv =
  match wait (start argv) with
  | Unix.WEXITED 0 -> ()
  | status -> fail "%s failed (%s)" argv.(1) (describe status)

(* Poll every 2 ms until [ready ()], giving up after [seconds] of
   sleeping. *)
let poll ~seconds ready =
  let rec go sleeps =
    ready ()
    || sleeps > 0
       && (Unix.sleepf 0.002;
           go (sleeps - 1))
  in
  go (int_of_float (seconds /. 0.002))

let journal dir = Filename.concat (Filename.concat dir "journals") "w0.journal"

(* Does the journal hold a unit marker, "<crc> {"type":"unit",...}"? *)
let has_unit dir =
  match read_file (journal dir) with
  | exception Sys_error _ -> false
  | text ->
      List.exists
        (fun line ->
          match String.index_opt line ' ' with
          | Some sp ->
              String.starts_with ~prefix:"{\"type\":\"unit\""
                (String.sub line (sp + 1) (String.length line - sp - 1))
          | None -> false)
        (String.split_on_char '\n' text)

(* The still-running child [pid]'s status, or [None] after [seconds]. *)
let wait_within ~seconds pid =
  let status = ref None in
  let exited () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> false
    | _, s ->
        status := Some s;
        children := List.filter (( <> ) pid) !children;
        true
  in
  if poll ~seconds exited then !status else None

let () =
  let archpred = Sys.argv.(1) in
  let root = Filename.temp_dir "check_shard" "" in
  (* at_exit, not Fun.protect: [fail] exits without unwinding. *)
  at_exit (fun () -> rm_rf root);
  let path name = Filename.concat root name in
  (* Large enough (about a second at two domains) that the kill and the
     second process land while the build is running. *)
  let common =
    [|
      archpred; "train"; "-b"; "mcf"; "-n"; "200"; "--trace-length"; "20000";
      "--seed"; "7"; "--test-points"; "40";
    |]
  in
  let checkpointed dir model =
    Array.append common [| "--checkpoint"; dir; "--save"; model |]
  in
  run (Array.append common [| "--save"; path "single.model" |]);
  let single = read_file (path "single.model") in
  let same_model what model =
    if not (String.equal single (read_file model)) then
      fail "%s: model differs from the single-process model" what
  in
  (* A real crash: SIGKILL once a unit is committed, then resume. *)
  let killed = checkpointed (path "killed") (path "killed.model") in
  let pid = start killed in
  if not (poll ~seconds:60. (fun () -> has_unit (path "killed"))) then
    fail "no unit committed within 60 s";
  Unix.kill pid Sys.sigkill;
  (match wait pid with
  | Unix.WSIGNALED s when s = Sys.sigkill -> ()
  | Unix.WEXITED 0 ->
      fail "the build finished before it was killed; enlarge the run"
  | status -> fail "the killed build ended with %s" (describe status));
  run killed;
  same_model "killed and resumed" (path "killed.model");
  (* The finished directory only reassembles. *)
  run killed;
  same_model "resumed finished directory" (path "killed.model");
  let other_seed = Array.copy killed in
  other_seed.(9) <- "8";
  (match wait (start other_seed) with
  | Unix.WEXITED 5 -> ()
  | status ->
      fail "a run directory of another seed was not refused (%s)"
        (describe status));
  (* A second live process on the same directory is refused. *)
  let locked = path "locked" in
  let a = start (checkpointed locked (path "a.model")) in
  if not (poll ~seconds:60. (fun () -> Sys.file_exists (journal locked))) then
    fail "the first build opened no journal within 60 s";
  let b = start (checkpointed locked (path "b.model")) in
  (match wait_within ~seconds:2. b with
  | Some (Unix.WEXITED 4) -> ()
  | Some (Unix.WEXITED 0) ->
      fail
        "a second process on a busy run directory exited 0 (if the first \
         build had already finished, enlarge the run)"
  | Some status ->
      fail "a second process on a busy run directory ended with %s, not exit 4"
        (describe status)
  | None ->
      fail "a second process on a busy run directory still runs after 2 s");
  (match wait a with
  | Unix.WEXITED 0 -> ()
  | status -> fail "the first build failed (%s)" (describe status));
  same_model "first of two processes" (path "a.model");
  print_endline
    "ok: a checkpointed train killed by SIGKILL resumes to the \
     single-process model, and a second process on a busy run directory \
     is refused"
