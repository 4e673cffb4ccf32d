module Design = Archpred_design
module Stats = Archpred_stats
module Obs = Archpred_obs
module Error = Archpred_obs.Error

(* Blocking client for the prediction daemon: the other half of the
   wire protocol, used by the CLI's `served --probe`, the daemon tests,
   and the load bench.  One [t] is one connection; requests can be
   pipelined (the daemon answers in batch order, which preserves
   per-connection request order). *)

type t = {
  fd : Unix.file_descr;
  dec : Frame.decoder;
  buf : Bytes.t;  (* socket reads land here *)
  mutable out : Bytes.t;  (* requests written in place for the next send *)
  mutable out_len : int;
  mutable open_ : bool;
}

let sockaddr_of = function
  | Daemon.Unix_socket path -> Unix.ADDR_UNIX path
  | Daemon.Tcp { host; port } ->
      Unix.ADDR_INET (Unix.inet_addr_of_string host, port)

let domain_of = function
  | Daemon.Unix_socket _ -> Unix.PF_UNIX
  | Daemon.Tcp _ -> Unix.PF_INET

let connect ?(retries = 100) ?(retry_delay_s = 0.02) listener =
  (* a daemon that goes away must surface as [Io_error], not SIGPIPE *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let addr = sockaddr_of listener in
  let rec go attempt =
    let fd = Unix.socket ~cloexec:true (domain_of listener) Unix.SOCK_STREAM 0 in
    match Unix.connect fd addr with
    | () ->
        {
          fd;
          dec = Frame.decoder ();
          buf = Bytes.create 65536;
          out = Bytes.create 4096;
          out_len = 0;
          open_ = true;
        }
    | exception Unix.Unix_error ((ECONNREFUSED | ENOENT | EINTR), _, _)
      when attempt < retries ->
        (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
        (* the daemon may still be binding its socket; poll briefly *)
        Unix.sleepf retry_delay_s;
        go (attempt + 1)
    | exception (Unix.Unix_error (_, _, _) as e) ->
        (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
        raise e
  in
  go 0

let close t =
  if t.open_ then begin
    t.open_ <- false;
    try Unix.close t.fd with Unix.Unix_error (_, _, _) -> ()
  end

let reset () =
  Error.io_error ~path:"<daemon socket>" "connection reset by the daemon"

(* Room for [n] more bytes in [t.out]. *)
let reserve t n =
  if t.out_len + n > Bytes.length t.out then begin
    let grown = Bytes.create (max (t.out_len + n) (2 * Bytes.length t.out)) in
    Bytes.blit t.out 0 grown 0 t.out_len;
    t.out <- grown
  end

(* Append one predict request to [t.out], written in place. *)
let put_predict t wire ~id ~natural point =
  reserve t (Frame.request_room wire (Array.length point));
  t.out_len <- Frame.put_request t.out t.out_len wire ~id ~natural point

(* Send everything in [t.out] and clear it. *)
let flush_out t =
  let off = ref 0 in
  while !off < t.out_len do
    match Unix.single_write t.fd t.out !off (t.out_len - !off) with
    | n -> off := !off + n
    | exception Unix.Unix_error (EINTR, _, _) -> ()
    | exception Unix.Unix_error ((EPIPE | ECONNRESET), _, _) -> reset ()
  done;
  t.out_len <- 0

let predict t wire ~id ?(natural = false) point =
  put_predict t wire ~id ~natural point;
  flush_out t

let reload t ?path () =
  let s = Frame.encode_request Frame.Json_wire (Frame.Reload path) in
  reserve t (String.length s);
  Bytes.blit_string s 0 t.out t.out_len (String.length s);
  t.out_len <- t.out_len + String.length s;
  flush_out t

(* One blocking read into the decoder. *)
let fill t =
  match Unix.read t.fd t.buf 0 (Bytes.length t.buf) with
  | 0 -> Error.io_error ~path:"<daemon socket>" "connection closed by the daemon"
  | n -> Frame.feed t.dec t.buf 0 n
  | exception Unix.Unix_error (EINTR, _, _) -> ()
  | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) -> reset ()

let desync msg = Error.parse_error ~where:"Serve_net.Client.recv" ~line:0 msg

let rec recv t =
  match Frame.next_response t.dec with
  | `Msg (resp, _) -> resp
  | `Error msg -> desync msg
  | `Need_more ->
      fill t;
      recv t

(* -------------------------------------------------------------- *)
(* Pipelined load driver                                          *)
(* -------------------------------------------------------------- *)

type load = {
  sent : int;
  ok : int;
  shed : int;
  timeouts : int;
  other : int;  (** bad_request / shutting_down replies *)
  elapsed_ns : int64;
  throughput : float;  (** answered replies per second *)
  p50_ns : float;
  p99_ns : float;
  p999_ns : float;
  checksum : float;  (** sum of [ok] values — determinism anchor *)
}

(* [drive] encodes the requests that replies free from the window into
   one buffer and sends it whenever it reaches [drive_chunk] bytes, so
   the daemon decodes the first requests while later ones are still
   being encoded.  Measured with both workloads of the end-to-end
   benchmark (binary on-grid and JSON off-grid points, 64 outstanding,
   one connection, 5 s runs alternated with the previous client on a
   2-core x86-64 host), pred/s medians per run:
   - 1 KiB: binary 1.14-1.23M, JSON 82-136k (previous client, one write
     per request: 0.25-0.32M and 69-100k);
   - binary at 256 B: 0.74-0.88M; 512 B: 0.92-1.25M; 2 KiB: 1.07-1.14M;
     JSON within noise of 1 KiB at 512 B and 2 KiB, lower at 256 B;
   - encoding the whole window before its first write, whatever the
     chunk, puts client encoding in lock-step with daemon decoding: JSON
     fell to 75-81k at 1 KiB against 105-109k for the previous client,
     p50 650-700 us against 510-525. *)
let drive_chunk = 1024

let drive t wire ?(pipeline = 64) points =
  let n = Array.length points in
  if n = 0 then Error.invalid_input ~where:"Client.drive" "no points";
  if pipeline < 1 then Error.invalid_input ~where:"Client.drive" "pipeline < 1";
  let sent_ns = Array.make n 0 in
  let lat = Array.make n 0. in
  let ok = ref 0 and shed = ref 0 and timeouts = ref 0 and other = ref 0 in
  let checksum = ref 0. in
  let next = ref 0 in
  let received = ref 0 in
  let handle = function
    | Frame.Reply { id; status; value } ->
        if id >= 0 && id < n then
          lat.(!received) <- float_of_int (Int64.to_int (Obs.now_ns ()) - sent_ns.(id));
        (match status with
        | Frame.Ok ->
            incr ok;
            checksum := !checksum +. value
        | Frame.Overloaded -> incr shed
        | Frame.Timeout -> incr timeouts
        | Frame.Bad_request | Frame.Shutting_down -> incr other);
        incr received
    | Frame.Reload_reply _ -> incr received
  in
  (* handle every reply already decoded; [true] if there was one *)
  let rec handle_decoded got =
    match Frame.next_response t.dec with
    | `Msg (resp, _) ->
        handle resp;
        handle_decoded true
    | `Need_more -> got
    | `Error msg -> desync msg
  in
  let t0 = Obs.now_ns () in
  while !received < n do
    while !next < n && !next - !received < pipeline do
      sent_ns.(!next) <- Int64.to_int (Obs.now_ns ());
      put_predict t wire ~id:!next ~natural:false points.(!next);
      incr next;
      if t.out_len >= drive_chunk then flush_out t
    done;
    flush_out t;
    if not (handle_decoded false) then begin
      fill t;
      ignore (handle_decoded false)
    end
  done;
  let elapsed = Int64.sub (Obs.now_ns ()) t0 in
  let qs =
    match Stats.Quantile.quantiles lat [ 0.5; 0.99; 0.999 ] with
    | [ a; b; c ] -> (a, b, c)
    | _ -> (0., 0., 0.)
  in
  let p50_ns, p99_ns, p999_ns = qs in
  {
    sent = !next;
    ok = !ok;
    shed = !shed;
    timeouts = !timeouts;
    other = !other;
    elapsed_ns = elapsed;
    throughput =
      (let s = Int64.to_float elapsed /. 1e9 in
       if s > 0. then float_of_int n /. s else 0.);
    p50_ns;
    p99_ns;
    p999_ns;
    checksum = !checksum;
  }
