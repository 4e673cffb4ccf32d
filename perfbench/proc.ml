(* Child processes: the archpred CLI run to completion under observation,
   and the daemon run in the background until it is told to drain.  All
   times come from the monotonic clock. *)

module Obs = Archpred_obs

let seconds_since t0 = Int64.to_float (Int64.sub (Obs.now_ns ()) t0) *. 1e-9

let peak_kb pid =
  match
    In_channel.with_open_text (Printf.sprintf "/proc/%d/status" pid)
      In_channel.input_all
  with
  | text -> Perfbench.Parse.vmhwm_kb text
  | exception Sys_error _ -> None

(* CPU seconds a live process has used; /proc counts in USER_HZ = 100
   ticks per second on Linux. *)
let cpu_s pid =
  match
    In_channel.with_open_text (Printf.sprintf "/proc/%d/stat" pid)
      In_channel.input_all
  with
  | text ->
      Option.map (fun t -> float_of_int t /. 100.) (Perfbench.Parse.cpu_ticks text)
  | exception Sys_error _ -> None

let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let rec waitpid pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid pid

let describe = function
  | Unix.WEXITED n -> Printf.sprintf "exit %d" n
  | Unix.WSIGNALED n -> Printf.sprintf "signal %d" n
  | Unix.WSTOPPED n -> Printf.sprintf "stopped by %d" n

let with_env pairs =
  let overridden entry =
    List.exists
      (fun (k, _) -> String.starts_with ~prefix:(k ^ "=") entry)
      pairs
  in
  Array.append
    (Array.of_list (List.filter (fun e -> not (overridden e)) (Array.to_list (Unix.environment ()))))
    (Array.of_list (List.map (fun (k, v) -> k ^ "=" ^ v) pairs))

type run = {
  status : Unix.process_status;
  wall_s : float;  (** spawn to exit *)
  first_line_s : float option;  (** spawn to the first complete stdout line *)
  peak_kb : int option;  (** last [VmHWM] read before the process exited *)
  output : string;
}

(* Stdout is polled every 10 ms at most, and [VmHWM] read on every poll:
   the high-water mark only grows, so the last read before exit is the
   peak up to that moment. *)
let run ~env prog args =
  let r, w = Unix.pipe ~cloexec:true () in
  let t0 = Obs.now_ns () in
  let pid =
    Unix.create_process_env prog (Array.of_list (prog :: args)) env Unix.stdin w
      Unix.stderr
  in
  Unix.close w;
  let out = Buffer.create 1024 and chunk = Bytes.create 4096 in
  let first_line = ref None and peak = ref None and eof = ref false in
  while not !eof do
    (match Unix.select [ r ] [] [] 0.01 with
    | [], _, _ -> ()
    | _ -> (
        match Unix.read r chunk 0 (Bytes.length chunk) with
        | 0 -> eof := true
        | n ->
            if
              Option.is_none !first_line
              && String.contains (Bytes.sub_string chunk 0 n) '\n'
            then first_line := Some (seconds_since t0);
            Buffer.add_subbytes out chunk 0 n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    if not !eof then
      match peak_kb pid with Some kb -> peak := Some kb | None -> ()
  done;
  let status = waitpid pid in
  let wall_s = seconds_since t0 in
  Unix.close r;
  { status; wall_s; first_line_s = !first_line; peak_kb = !peak; output = Buffer.contents out }

type daemon = { pid : int; out : Unix.file_descr; started : int64 }

let start prog args =
  let r, w = Unix.pipe ~cloexec:true () in
  let started = Obs.now_ns () in
  let pid =
    Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin w
      Unix.stderr
  in
  Unix.close w;
  { pid; out = r; started }

(* SIGTERM, then collect stdout until the daemon closes it.  A daemon
   that has not exited 30 s later is killed. *)
let stop d =
  let grace_s = 30. in
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error (Unix.ESRCH, _, _) -> ());
  let t0 = Obs.now_ns () in
  let out = Buffer.create 1024 and chunk = Bytes.create 4096 in
  let eof = ref false in
  while not !eof do
    if seconds_since t0 > grace_s then begin
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error (Unix.ESRCH, _, _) -> ());
      eof := true
    end
    else
      match Unix.select [ d.out ] [] [] 0.1 with
      | [], _, _ -> ()
      | _ -> (
          match Unix.read d.out chunk 0 (Bytes.length chunk) with
          | 0 -> eof := true
          | n -> Buffer.add_subbytes out chunk 0 n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  let status = waitpid d.pid in
  Unix.close d.out;
  (status, Buffer.contents out)

let kill d =
  (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error (Unix.ESRCH, _, _) -> ());
  ignore (waitpid d.pid);
  try Unix.close d.out with Unix.Unix_error (_, _, _) -> ()
