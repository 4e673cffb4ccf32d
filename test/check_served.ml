(* End-to-end smoke test for the real daemon binary: save a tiny model,
   start `archpred served` on a temp Unix socket, round-trip predictions
   on both framings (answers must match the scalar oracle bitwise),
   hot-reload to a second model, survive a client that aborts
   mid-stream while serving another, then SIGTERM and require a clean
   drain — exit status 0.  The binary path arrives as argv.(1) from the
   dune runtest rule. *)

module Core = Archpred_core
module Rbf = Archpred_rbf
module Stats = Archpred_stats
module Design = Archpred_design
module Frame = Archpred_serve_net.Frame
module Daemon = Archpred_serve_net.Daemon
module Client = Archpred_serve_net.Client

(* archpred-lint: allow exit -- check harness failure path *)
let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let tiny_predictor seed =
  let dim = 9 in
  let rng = Stats.Rng.create seed in
  let centers =
    Array.init 6 (fun _ ->
        {
          Rbf.Network.c = Array.init dim (fun _ -> Stats.Rng.unit_float rng);
          r = Array.init dim (fun _ -> 0.3 +. Stats.Rng.unit_float rng);
        })
  in
  let weights = Array.init 6 (fun _ -> Stats.Rng.unit_float rng -. 0.5) in
  let network = { Rbf.Network.centers; weights } in
  Core.Predictor.make ~space:Core.Paper_space.space ~network ~p_min:1
    ~alpha:7. ()

let () =
  if Array.length Sys.argv < 2 then fail "usage: check_served ARCHPRED_BIN";
  let bin = Sys.argv.(1) in
  let dir = Filename.get_temp_dir_name () in
  let pid_tag = Unix.getpid () in
  let model_a = Filename.concat dir (Printf.sprintf "served_smoke_%d_a.model" pid_tag) in
  let model_b = Filename.concat dir (Printf.sprintf "served_smoke_%d_b.model" pid_tag) in
  let sock = Filename.concat dir (Printf.sprintf "served_smoke_%d.sock" pid_tag) in
  let pred_a = tiny_predictor 41 in
  let pred_b = tiny_predictor 97 in
  Core.Persist.save pred_a model_a;
  Core.Persist.save pred_b model_b;
  let pid =
    Unix.create_process bin
      [| bin; "served"; "--model"; model_a; "--socket"; sock |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  let cleanup () =
    List.iter
      (fun f -> try Sys.remove f with Sys_error _ -> ())
      [ model_a; model_b; sock ]
  in
  let space = Core.Paper_space.space in
  let dim = Design.Space.dimension space in
  let rng = Stats.Rng.create 5 in
  let points =
    Array.init 32 (fun _ ->
        Design.Space.snap space ~sample_size:90
          (Array.init dim (fun _ -> Stats.Rng.unit_float rng)))
  in
  let bits = Int64.bits_of_float in
  (try
     let c = Client.connect ~retries:250 (Daemon.Unix_socket sock) in
     List.iter
       (fun wire ->
         Array.iteri (fun i p -> Client.predict c wire ~id:i p) points;
         Array.iteri
           (fun i p ->
             match Client.recv c with
             | Frame.Reply { id; status = Frame.Ok; value } ->
                 if id <> i then fail "reply order broken: want %d got %d" i id;
                 let expect =
                   Rbf.Network.eval pred_a.Core.Predictor.network p
                 in
                 if not (Int64.equal (bits expect) (bits value)) then
                   fail "wrong answer at point %d: want %.17g got %.17g" i
                     expect value
             | Frame.Reply { status; _ } ->
                 fail "point %d: status %s" i (Frame.status_name status)
             | Frame.Reload_reply _ -> fail "unexpected reload reply")
           points)
       [ Frame.Json_wire; Frame.Binary_wire ];
     (* hot reload to model B over the wire *)
     Client.reload c ~path:model_b ();
     (match Client.recv c with
     | Frame.Reload_reply { ok = true; _ } -> ()
     | Frame.Reload_reply { ok = false; detail } ->
         fail "reload rejected: %s" detail
     | Frame.Reply _ -> fail "expected reload reply");
     Client.predict c Frame.Json_wire ~id:0 points.(0);
     (match Client.recv c with
     | Frame.Reply { status = Frame.Ok; value; _ } ->
         let expect =
           Rbf.Network.eval pred_b.Core.Predictor.network points.(0)
         in
         if not (Int64.equal (bits expect) (bits value)) then
           fail "post-reload answer is not model B's"
     | _ -> fail "post-reload predict failed");
     Client.close c;
     (* a client that aborts mid-stream: 4000 binary requests, then it
        hangs up without reading a reply.  The daemon's writes to it
        fail with EPIPE; that must cost only that connection (no
        SIGPIPE death), and a second client is still served. *)
     let abort = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
     Unix.connect abort (Unix.ADDR_UNIX sock);
     let burst = Buffer.create (4000 * 84) in
     for id = 0 to 3999 do
       Frame.add_request burst Frame.Binary_wire
         (Frame.Predict { id; point = points.(id mod Array.length points); natural = false })
     done;
     let data = Buffer.to_bytes burst in
     let off = ref 0 in
     while !off < Bytes.length data do
       off := !off + Unix.write abort data !off (Bytes.length data - !off)
     done;
     Unix.close abort;
     let c2 = Client.connect (Daemon.Unix_socket sock) in
     let load = Client.drive c2 Frame.Binary_wire points in
     Client.close c2;
     let oracle =
       Array.fold_left ( +. ) 0. (Core.Predictor.predict_batch pred_b points)
     in
     if load.Client.ok <> Array.length points then
       fail "second client: %d of %d replies ok after an abort" load.Client.ok
         (Array.length points);
     if not (Int64.equal (bits oracle) (bits load.Client.checksum)) then
       fail "second client: checksum is not model B's after an abort";
     (* graceful drain on SIGTERM: the daemon must exit 0 — the aborted
        client's replies are peer hang-ups, not daemon losses *)
     Unix.kill pid Sys.sigterm;
     (match Unix.waitpid [] pid with
     | _, Unix.WEXITED 0 -> ()
     | _, Unix.WEXITED n -> fail "daemon exited %d after SIGTERM" n
     | _, Unix.WSIGNALED n -> fail "daemon killed by signal %d" n
     | _, Unix.WSTOPPED n -> fail "daemon stopped by signal %d" n)
   with e ->
     (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
     cleanup ();
     raise e);
  cleanup ();
  Printf.printf
    "ok: served round-trips both framings, hot-reloads, survives an aborted \
     client, drains clean (%d points)\n"
    (Array.length points)
