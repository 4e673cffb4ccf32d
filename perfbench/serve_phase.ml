(* The serving half of a workload: `archpred served` in its own process,
   driven by this process as its only client — one thread, one Unix-socket
   connection, a closed loop with [pipeline] requests outstanding, which
   models a design-space-exploration driver that waits for its replies.
   The traced variant replays the same stream through the daemon's layers
   in process. *)

module Core = Archpred_core
module Design = Archpred_design
module Stats = Archpred_stats
module Frame = Archpred_serve_net.Frame
module Daemon = Archpred_serve_net.Daemon
module Client = Archpred_serve_net.Client
module Obs = Archpred_obs

type config = {
  wire : Frame.wire;
  hot : bool;
      (** [true]: cycle over [pool_size] points on the daemon's memo grid;
          [false]: fresh uniform points, all off the grid *)
  round : int;  (** requests per timed round *)
}

let pipeline = 64
let pool_size = 512

(* The request stream of one run, drawn from the workload seed: [take n]
   returns its next [n] points. *)
let source c ~seed =
  let space = Core.Paper_space.space in
  let dim = Design.Space.dimension space in
  let rng = Stats.Rng.create seed in
  let uniform () = Array.init dim (fun _ -> Stats.Rng.unit_float rng) in
  if c.hot then begin
    let pool =
      Array.init pool_size (fun _ ->
          Design.Space.snap space
            ~sample_size:Daemon.default.Daemon.grid_sample_size (uniform ()))
    in
    let pos = ref 0 in
    fun n ->
      let pts = Array.init n (fun i -> pool.((!pos + i) mod pool_size)) in
      pos := (!pos + n) mod pool_size;
      pts
  end
  else fun n -> Array.init n (fun _ -> uniform ())

let bits = Int64.bits_of_float

(* The client sums [ok] values in reply order, which is request order on
   one connection; the oracle sums the same values in the same order. *)
let oracle_sum predictor pts =
  Array.fold_left ( +. ) 0. (Core.Predictor.predict_batch predictor pts)

type round = {
  throughput : float;
  p50_us : float;
  p99_us : float;
  p999_us : float;
  sent : int;
}

type result = {
  setup_s : float list;  (** spawn to first reply, one per daemon start *)
  peak_mb : float;
  rounds : round list;
  daemon_cpu_s : float;  (** CPU the daemon used during the timed rounds *)
  client_cpu_s : float;  (** CPU this process used during the timed rounds *)
  attempted : int;
  failed : int;
  drain : Perfbench.Parse.drain option;
  counters : (string * int) list;  (** from --metrics (traced runs) *)
}

(* Returns the load record and this process's CPU seconds inside the
   closed loop (the oracle check after it is not counted). *)
let drive ~fail ~predictor c wire pts =
  let cpu0 = Proc.self_cpu_s () in
  let load = Client.drive c wire ~pipeline pts in
  let cpu = Proc.self_cpu_s () -. cpu0 in
  if load.Client.ok <> load.Client.sent then
    fail
      (Printf.sprintf "%d of %d replies not ok (shed %d, timeouts %d, other %d)"
         (load.Client.sent - load.Client.ok) load.Client.sent load.Client.shed
         load.Client.timeouts load.Client.other)
  else if not (Int64.equal (bits load.Client.checksum) (bits (oracle_sum predictor pts)))
  then fail "served checksum differs from in-process predict_batch";
  (load, cpu)

let stop ~fail d =
  let status, out = Proc.stop d in
  (match status with
  | Unix.WEXITED 0 -> ()
  | s -> fail ("archpred served: " ^ Proc.describe s));
  match Perfbench.Parse.drain_block out with
  | None ->
      fail "archpred served printed no drain block";
      None
  | Some dr ->
      if dr.Perfbench.Parse.lost <> 0 then
        fail (Printf.sprintf "daemon lost %d replies" dr.Perfbench.Parse.lost);
      Some dr

(* Start a daemon and time spawn -> first answered request.  The connect
   is retried every 0.5 ms while the daemon binds its socket. *)
let start ~fail ~exe ~args ~sock ~predictor wire point =
  (try Sys.remove sock with Sys_error _ -> ());
  let d = Proc.start exe args in
  match
    let c =
      Client.connect ~retries:20_000 ~retry_delay_s:0.0005 (Daemon.Unix_socket sock)
    in
    Client.predict c wire ~id:0 point;
    (c, Client.recv c)
  with
  | c, reply ->
      let setup = Proc.seconds_since d.Proc.started in
      let expect = (Core.Predictor.predict_batch predictor [| point |]).(0) in
      (match reply with
      | Frame.Reply { status = Frame.Ok; value; _ }
        when Int64.equal (bits value) (bits expect) -> ()
      | Frame.Reply _ | Frame.Reload_reply _ ->
          fail "first reply is not the model's prediction");
      (d, c, setup)
  | exception e ->
      Proc.kill d;
      raise e

let min_rounds = 2

(* [starts] daemon starts give the set-up samples; the last daemon
   started also takes the load: [warmup] requests, then timed rounds
   until [seconds] have passed (at least [min_rounds]). *)
let run ~fail ~exe ~dir ~model ~seed ?metrics ~starts ~warmup ~seconds c =
  let predictor = Core.Persist.load model in
  let take = source c ~seed in
  let sock = Filename.concat dir "served.sock" in
  let args =
    [ "served"; "--model"; model; "--socket"; sock ]
    @ match metrics with Some f -> [ "--metrics"; f ] | None -> []
  in
  let attempted = ref 0 and failed = ref 0 in
  let setups = ref [] in
  let launch () =
    incr attempted;
    let first_failed msg =
      incr failed;
      fail msg
    in
    let d, conn, s =
      start ~fail:first_failed ~exe ~args ~sock ~predictor c.wire (take 1).(0)
    in
    setups := s :: !setups;
    (d, conn)
  in
  for _ = 2 to starts do
    let d, conn = launch () in
    Client.close conn;
    ignore (stop ~fail d)
  done;
  let d, conn = launch () in
  let result =
    match
      let counted pts =
        let load, cpu = drive ~fail ~predictor conn c.wire pts in
        attempted := !attempted + load.Client.sent;
        failed := !failed + (load.Client.sent - load.Client.ok);
        (load, cpu)
      in
      ignore (counted (take warmup));
      let daemon_cpu0 = Proc.cpu_s d.Proc.pid in
      let client_cpu_s = ref 0. in
      let t0 = Obs.now_ns () in
      let rounds = ref [] in
      while List.length !rounds < min_rounds || Proc.seconds_since t0 < seconds do
        let load, cpu = counted (take c.round) in
        client_cpu_s := !client_cpu_s +. cpu;
        rounds :=
          {
            throughput = load.Client.throughput;
            p50_us = load.Client.p50_ns /. 1e3;
            p99_us = load.Client.p99_ns /. 1e3;
            p999_us = load.Client.p999_ns /. 1e3;
            sent = load.Client.sent;
          }
          :: !rounds
      done;
      let daemon_cpu_s =
        match (daemon_cpu0, Proc.cpu_s d.Proc.pid) with
        | Some a, Some b -> b -. a
        | _ ->
            fail "no CPU time read for archpred served";
            0.
      in
      let peak_mb =
        match Proc.peak_kb d.Proc.pid with
        | Some kb -> float_of_int kb /. 1024.
        | None ->
            fail "no VmHWM read for archpred served";
            0.
      in
      (List.rev !rounds, peak_mb, daemon_cpu_s, !client_cpu_s)
    with
    | r -> r
    | exception e ->
        Client.close conn;
        Proc.kill d;
        raise e
  in
  Client.close conn;
  let drain = stop ~fail d in
  let counters =
    match metrics with
    | Some f -> Perfbench.Parse.counters (In_channel.with_open_bin f In_channel.input_all)
    | None -> []
  in
  let rounds, peak_mb, daemon_cpu_s, client_cpu_s = result in
  {
    setup_s = List.rev !setups;
    peak_mb;
    rounds;
    daemon_cpu_s;
    client_cpu_s;
    attempted = !attempted;
    failed = !failed;
    drain;
    counters;
  }

(* ------------------------------------------------------------------ *)
(* Traced replay: the daemon's per-request layers, timed in process.    *)
(* ------------------------------------------------------------------ *)

type layers = {
  decode_request_ns : float;
  encode_response_ns : float;
  encode_request_ns : float;
  decode_response_ns : float;
  probe_ns : float;  (** Memo.probe_batch + commit, per point *)
  kernel_ns : float;  (** predict_batch without a cache, per point *)
  load_s : float;  (** Persist.load of the served model *)
}

let reps = 5

let per_item_ns n f =
  let samples =
    List.init reps (fun _ ->
        let t0 = Obs.now_ns () in
        f ();
        Int64.to_float (Int64.sub (Obs.now_ns ()) t0) /. float_of_int n)
  in
  Perfbench.Summary.median samples

let decode_all ~next ~n data =
  let dec = Frame.decoder () in
  let b = Bytes.unsafe_of_string data in
  let chunk = 65_536 in
  let got = ref 0 and pos = ref 0 in
  while !pos < Bytes.length b do
    let len = min chunk (Bytes.length b - !pos) in
    Frame.feed dec b !pos len;
    pos := !pos + len;
    let more = ref true in
    while !more do
      match next dec with
      | `Msg _ -> incr got
      | `Need_more -> more := false
      | `Error e -> failwith ("replay decode: " ^ e)
    done
  done;
  if !got <> n then failwith "replay decoded a different number of frames"

let batches b pts f =
  let n = Array.length pts in
  let pos = ref 0 in
  while !pos < n do
    let len = min b (n - !pos) in
    f (Array.sub pts !pos len);
    pos := !pos + len
  done

(* [batch] is the daemon's mean batch size; the memo is warmed with
   [warmup] requests of the stream first, as the daemon's was. *)
let replay ~model ~seed ~warmup ~batch c =
  let load_s =
    Perfbench.Summary.median
      (List.init reps (fun _ ->
           let t0 = Obs.now_ns () in
           ignore (Core.Persist.load model);
           Proc.seconds_since t0))
  in
  let predictor = Core.Persist.load model in
  let take = source c ~seed in
  let warm = take warmup in
  let pts = take c.round in
  let n = Array.length pts in
  let vals = Core.Predictor.predict_batch predictor pts in
  let requests =
    Array.mapi
      (fun id point -> Frame.Predict { id; point; natural = false })
      pts
  in
  let responses =
    Array.mapi
      (fun id value -> Frame.Reply { id; status = Frame.Ok; value })
      vals
  in
  let encode_request_ns =
    per_item_ns n (fun () ->
        Array.iter (fun r -> ignore (Frame.encode_request c.wire r)) requests)
  in
  let encode_response_ns =
    per_item_ns n (fun () ->
        Array.iter (fun r -> ignore (Frame.encode_response c.wire r)) responses)
  in
  let req_bytes =
    String.concat "" (Array.to_list (Array.map (Frame.encode_request c.wire) requests))
  in
  let resp_bytes =
    String.concat "" (Array.to_list (Array.map (Frame.encode_response c.wire) responses))
  in
  let decode_request_ns =
    per_item_ns n (fun () -> decode_all ~next:Frame.next_request ~n req_bytes)
  in
  let decode_response_ns =
    per_item_ns n (fun () -> decode_all ~next:Frame.next_response ~n resp_bytes)
  in
  let b = max 1 (min batch Daemon.default.Daemon.max_batch) in
  let probe_ns =
    let memo () =
      let m =
        Core.Memo.create ~capacity:Daemon.default.Daemon.cache_capacity
          ~space:predictor.Core.Predictor.space
          ~sample_size:Daemon.default.Daemon.grid_sample_size ()
      in
      batches b warm (fun w -> ignore (Core.Predictor.predict_batch ~cache:m predictor w));
      m
    in
    let samples =
      List.init reps (fun _ ->
          let m = memo () in
          let spent = ref 0L and start = ref 0 in
          batches b pts (fun batch ->
              let k = Array.length batch in
              let t0 = Obs.now_ns () in
              let out = Array.make k 0. and miss = Array.make k 0 in
              let misses = Core.Memo.probe_batch m batch ~out ~miss in
              let t1 = Obs.now_ns () in
              for j = 0 to misses - 1 do
                out.(miss.(j)) <- vals.(!start + miss.(j))
              done;
              let t2 = Obs.now_ns () in
              Core.Memo.commit m out;
              let t3 = Obs.now_ns () in
              spent := Int64.add !spent (Int64.add (Int64.sub t1 t0) (Int64.sub t3 t2));
              start := !start + k);
          Int64.to_float !spent /. float_of_int n)
    in
    Perfbench.Summary.median samples
  in
  let kernel_ns =
    per_item_ns n (fun () ->
        batches b pts (fun batch -> ignore (Core.Predictor.predict_batch predictor batch)))
  in
  {
    decode_request_ns;
    encode_response_ns;
    encode_request_ns;
    decode_response_ns;
    probe_ns;
    kernel_ns;
    load_s;
  }
