module Design = Archpred_design
module Rbf = Archpred_rbf
module Stats = Archpred_stats
module Obs = Archpred_obs
module Core = Archpred_core
module Fault = Archpred_fault.Fault
module Error = Archpred_obs.Error

(* The prediction daemon: a single-threaded [Unix.select] event loop
   that accepts JSON-lines and binary-framed predict requests on a Unix
   or TCP socket, gathers them across connections into batches for the
   SIMD kernel (fronted by the quantized LRU memo), and answers on the
   wire each request arrived on.

   Robustness is the design driver, in layers:

   - {b Isolation}: every connection owns its decoder; a malformed
     frame turns into a best-effort [bad_request] reply and a closed
     connection after its earlier requests are answered — the batcher
     and the other connections never see it.
   - {b Backpressure}: the ingress queue is bounded ([max_pending]);
     beyond it requests are shed with an [overloaded] reply instead of
     growing the heap.  Each request carries a deadline; requests that
     sat in the queue past it are answered [timeout], not silently
     dropped.  A reader that stops draining its socket is disconnected
     once [max_egress] bytes pile up.
   - {b Graceful drain}: [request_drain] (wired to SIGTERM/SIGINT by
     the CLI) closes the listener, answers everything accepted, flushes
     all sockets, and returns — the [lost] counter is zero unless a
     connection died mid-flush.
   - {b Hot reload}: [request_reload] (SIGHUP or the JSON [reload]
     command) loads a model file, verifies it (CRC via Persist, then a
     probe batch cross-checked bitwise against the scalar oracle) and
     only then swaps predictor and cache; any failure keeps the old
     model serving.

   Fault-injection sites ("serve.accept", "serve.read", "serve.write",
   "serve.reload") let the crash matrix in test/test_served.ml prove
   those properties deterministically. *)

type listener = Unix_socket of string | Tcp of { host : string; port : int }

type config = {
  listener : listener;
  max_pending : int;  (** ingress bound: beyond it requests are shed *)
  max_batch : int;  (** largest batch handed to the kernel *)
  deadline_ns : int64;  (** queue-age budget per request *)
  max_egress : int;  (** per-connection egress byte bound *)
  max_frame : int;  (** per-frame size bound (both framings) *)
  max_connections : int;
  cache_capacity : int;
  grid_sample_size : int;
  domains : int;
      (** Not read: the daemon evaluates every batch on its event
          loop's domain.  Kept, at 1, only because perfbench stamps its
          records' [served_domains] from {!default}. *)
  model_path : string option;  (** default path for [reload] *)
  tick_s : float;  (** select timeout: control-flag latency bound *)
}

let default =
  {
    listener = Unix_socket "archpred.sock";
    max_pending = 4096;
    max_batch = 256;
    deadline_ns = 200_000_000L;
    max_egress = 1 lsl 20;
    max_frame = 1 lsl 20;
    max_connections = 64;
    cache_capacity = 4096;
    grid_sample_size = 90;
    domains = 1;
    model_path = None;
    tick_s = 0.02;
  }

type stats = {
  connections : int;
  requests : int;
  answered : int;
  shed : int;
  timeouts : int;
  bad_requests : int;
  protocol_errors : int;
  reloads_ok : int;
  reloads_failed : int;
  lost : int;
  hangups : int;
  cache : Core.Memo.stats;
}

(* -------------------------------------------------------------- *)
(* Control handle: the only cross-thread/signal surface           *)
(* -------------------------------------------------------------- *)

type control = {
  drain_flag : bool Atomic.t;
  reload_flag : bool Atomic.t;
  reload_path : string option Atomic.t;
}

let control () =
  {
    drain_flag = Atomic.make false;
    reload_flag = Atomic.make false;
    reload_path = Atomic.make None;
  }

let request_drain c = Atomic.set c.drain_flag true

let request_reload ?path c =
  Atomic.set c.reload_path path;
  Atomic.set c.reload_flag true

(* -------------------------------------------------------------- *)
(* Per-connection state                                           *)
(* -------------------------------------------------------------- *)

(* Egress is one growable byte buffer per connection: replies are
   encoded straight into it and a tick flushes it with one write (more
   only after a partial write).  A reply counts as answered once its last
   byte is written, so each counted reply's end offset in the
   connection's byte stream waits in an int ring until [sent] passes it. *)
type conn = {
  fd : Unix.file_descr;
  dec : Frame.decoder;
  mutable out : Bytes.t;  (* [out.[out_lo .. out_hi - 1]] is owed to the peer *)
  mutable out_lo : int;
  mutable out_hi : int;
  mutable sent : int;  (* bytes written to the socket so far *)
  mutable ends : int array;  (* ring of counted replies' end offsets *)
  mutable ends_head : int;
  mutable ends_len : int;
  mutable read_open : bool;  (* false after EOF or protocol error *)
  mutable alive : bool;  (* false once the fd is closed *)
  mutable unanswered : int;  (* parsed requests whose reply has not flushed *)
}

type pending = {
  p_conn : conn;
  p_wire : Frame.wire;
  p_id : int;
  p_point : Design.Space.point;
  p_deadline : int64;
}

type state = {
  cfg : config;
  obs : Obs.t;
  mutable predictor : Core.Predictor.t;
  mutable cache : Core.Memo.t;
  mutable model_path : string option;
  ingress : pending Queue.t;
  mutable conns : conn list;
  mutable draining : bool;
  read_buf : Bytes.t;
  mutable s_connections : int;
  mutable s_requests : int;
  mutable s_answered : int;
  mutable s_shed : int;
  mutable s_timeouts : int;
  mutable s_bad_requests : int;
  mutable s_protocol_errors : int;
  mutable s_reloads_ok : int;
  mutable s_reloads_failed : int;
  mutable s_lost : int;
  mutable s_hangups : int;
}

let fresh_cache st space =
  Core.Memo.create ~obs:st.obs ~capacity:st.cfg.cache_capacity ~space
    ~sample_size:st.cfg.grid_sample_size ()

(* -------------------------------------------------------------- *)
(* Egress buffer                                                  *)
(* -------------------------------------------------------------- *)

let out_initial = 4096
let egress_bytes conn = conn.out_hi - conn.out_lo

let new_conn ~max_frame fd =
  {
    fd;
    dec = Frame.decoder ~max_frame ();
    out = Bytes.create out_initial;
    out_lo = 0;
    out_hi = 0;
    sent = 0;
    ends = Array.make 64 0;
    ends_head = 0;
    ends_len = 0;
    read_open = true;
    alive = true;
    unanswered = 0;
  }

(* Room for [n] more bytes at [out_hi]: slide the owed bytes to the
   front when the written prefix frees enough, else double. *)
let reserve conn n =
  if conn.out_hi + n > Bytes.length conn.out then begin
    let owed = egress_bytes conn in
    let cap = Bytes.length conn.out in
    let buf = if owed + n <= cap then conn.out else Bytes.create (max (owed + n) (2 * cap)) in
    Bytes.blit conn.out conn.out_lo buf 0 owed;
    conn.out <- buf;
    conn.out_lo <- 0;
    conn.out_hi <- owed
  end

(* Called right after a counted reply's bytes are appended: its end
   offset in the connection's stream is everything sent plus everything
   owed.  The ring's capacity stays a power of two. *)
let push_end conn =
  let cap = Array.length conn.ends in
  if conn.ends_len = cap then begin
    let grown = Array.make (2 * cap) 0 in
    for i = 0 to cap - 1 do
      grown.(i) <- conn.ends.((conn.ends_head + i) land (cap - 1))
    done;
    conn.ends <- grown;
    conn.ends_head <- 0
  end;
  conn.ends.((conn.ends_head + conn.ends_len) land (Array.length conn.ends - 1)) <-
    conn.sent + egress_bytes conn;
  conn.ends_len <- conn.ends_len + 1

(* A counted reply, written in place on either wire (the per-request hot
   path, zero-alloc). *)
let send_reply conn wire ~id ~status value =
  (match wire with
  | Frame.Binary_wire ->
      reserve conn Frame.reply_len;
      Frame.put_binary_reply conn.out conn.out_hi ~id ~status value;
      conn.out_hi <- conn.out_hi + Frame.reply_len
  | Frame.Json_wire ->
      reserve conn Frame.json_reply_room;
      conn.out_hi <- Frame.put_json_reply conn.out conn.out_hi ~id ~status value);
  push_end conn

(* An uncounted JSON message: reload outcomes and protocol-error notices
   answer no predict request. *)
let send_notice conn resp =
  let s = Frame.encode_response Frame.Json_wire resp in
  let n = String.length s in
  reserve conn n;
  Bytes.blit_string s 0 conn.out conn.out_hi n;
  conn.out_hi <- conn.out_hi + n

(* [hangup]: the peer closed or reset the connection before reading
   what it was owed, as opposed to the daemon cutting it off. *)
let kill ?(hangup = false) st conn =
  if conn.alive then begin
    conn.alive <- false;
    conn.read_open <- false;
    (try Unix.close conn.fd with Unix.Unix_error (_, _, _) -> ());
    st.s_lost <- st.s_lost + conn.unanswered;
    if hangup then st.s_hangups <- st.s_hangups + conn.unanswered;
    if conn.unanswered > 0 then
      Obs.count st.obs "served.lost" conn.unanswered;
    conn.unanswered <- 0;
    conn.out <- Bytes.empty;
    conn.out_lo <- 0;
    conn.out_hi <- 0;
    conn.ends_len <- 0
  end

(* A connection is finished once nothing can flow in either direction:
   reads are done and every owed byte has been flushed. *)
let try_retire st conn =
  if
    conn.alive && (not conn.read_open)
    && egress_bytes conn = 0
    && conn.unanswered = 0
  then kill st conn (* nothing unanswered: closes without loss *)

(* -------------------------------------------------------------- *)
(* Request intake                                                 *)
(* -------------------------------------------------------------- *)

(* Hot reload: load -> verify -> swap, old model kept on any failure. *)
let do_reload st path_opt =
  let fail detail =
    st.s_reloads_failed <- st.s_reloads_failed + 1;
    Obs.incr st.obs "served.reload.failed";
    Frame.Reload_reply { ok = false; detail }
  in
  let path =
    match path_opt with Some _ -> path_opt | None -> st.model_path
  in
  match path with
  | None -> fail "no model path configured"
  | Some path -> (
      try
        Fault.point "serve.reload";
        let p = Core.Persist.load path in
        let dim = Design.Space.dimension p.Core.Predictor.space in
        if dim <> Design.Space.dimension st.predictor.Core.Predictor.space
        then fail "model dimension mismatch"
        else begin
          (* probe: the batched kernel of the candidate model must
             reproduce its scalar oracle bitwise on a deterministic
             grid sample — a wrong-answer model never swaps in *)
          let rng = Stats.Rng.create 9 in
          let probe =
            Array.init 32 (fun _ ->
                Design.Space.snap p.Core.Predictor.space
                  ~sample_size:st.cfg.grid_sample_size
                  (Array.init dim (fun _ -> Stats.Rng.unit_float rng)))
          in
          let batched = Core.Predictor.predict_batch p probe in
          let agree = ref true in
          Array.iteri
            (fun i q ->
              let s = Rbf.Network.eval p.Core.Predictor.network q in
              if
                not
                  (Int64.equal (Int64.bits_of_float s)
                     (Int64.bits_of_float batched.(i)))
              then agree := false)
            probe;
          if not !agree then fail "probe checksum mismatch"
          else begin
            st.predictor <- p;
            st.cache <- fresh_cache st p.Core.Predictor.space;
            st.model_path <- Some path;
            st.s_reloads_ok <- st.s_reloads_ok + 1;
            Obs.incr st.obs "served.reload.ok";
            Frame.Reload_reply { ok = true; detail = path }
          end
        end
      with
      | Error.Archpred e -> fail (Error.to_string e)
      | Fault.Injected site -> fail ("fault injected at " ^ site))

let handle_request st conn req wire =
  match req with
  | Frame.Reload path ->
      (* control messages answer on the JSON wire only *)
      send_notice conn (do_reload st path)
  | Frame.Predict { id; point; natural } -> (
      st.s_requests <- st.s_requests + 1;
      Obs.incr st.obs "served.requests";
      conn.unanswered <- conn.unanswered + 1;
      if st.draining then begin
        Obs.incr st.obs "served.shutting_down";
        send_reply conn wire ~id ~status:Frame.Shutting_down Float.nan
      end
      else if Queue.length st.ingress >= st.cfg.max_pending then begin
        st.s_shed <- st.s_shed + 1;
        Obs.incr st.obs "served.shed";
        send_reply conn wire ~id ~status:Frame.Overloaded Float.nan
      end
      else
        match
          let space = st.predictor.Core.Predictor.space in
          let p = if natural then Design.Space.encode space point else point in
          Design.Space.validate_point space p;
          p
        with
        (* Space raises Invalid_argument on arity/range, Error.Archpred
           on encode failures — either way it is the peer's input *)
        | exception (Invalid_argument _ | Error.Archpred _) ->
            st.s_bad_requests <- st.s_bad_requests + 1;
            Obs.incr st.obs "served.bad_request";
            send_reply conn wire ~id ~status:Frame.Bad_request Float.nan
        | p ->
            Queue.push
              {
                p_conn = conn;
                p_wire = wire;
                p_id = id;
                p_point = p;
                p_deadline = Int64.add (Obs.now_ns ()) st.cfg.deadline_ns;
              }
              st.ingress)

let rec drain_decoder st conn =
  if conn.alive && conn.read_open then
    match Frame.next_request conn.dec with
    | `Need_more -> ()
    | `Error msg ->
        (* the peer desynced: answer what it already sent, tell it why,
           and stop reading — nobody else is affected *)
        st.s_protocol_errors <- st.s_protocol_errors + 1;
        Obs.incr st.obs "served.protocol_error";
        conn.read_open <- false;
        ignore msg;
        send_notice conn
          (Frame.Reply { id = -1; status = Frame.Bad_request; value = Float.nan })
    | `Msg (req, wire) ->
        handle_request st conn req wire;
        drain_decoder st conn

(* -------------------------------------------------------------- *)
(* I/O edges                                                      *)
(* -------------------------------------------------------------- *)

let handle_readable st conn =
  if conn.alive && conn.read_open then begin
    match
      Fault.point "serve.read";
      Unix.read conn.fd st.read_buf 0 (Bytes.length st.read_buf)
    with
    | 0 ->
        conn.read_open <- false;
        try_retire st conn
    | n ->
        Frame.feed conn.dec st.read_buf 0 n;
        drain_decoder st conn
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error (ECONNRESET, _, _) -> kill ~hangup:true st conn
    | exception Unix.Unix_error (_, _, _) -> kill st conn
    | exception Fault.Injected _ ->
        Obs.incr st.obs "served.fault.read";
        kill st conn
  end

(* Pop every counted reply whose last byte is now written. *)
let retire_written st conn =
  let k = ref 0 in
  while conn.ends_len > 0 && conn.ends.(conn.ends_head) <= conn.sent do
    conn.ends_head <- (conn.ends_head + 1) land (Array.length conn.ends - 1);
    conn.ends_len <- conn.ends_len - 1;
    incr k
  done;
  if !k > 0 then begin
    st.s_answered <- st.s_answered + !k;
    conn.unanswered <- conn.unanswered - !k;
    Obs.count st.obs "served.answered" !k
  end

(* One write of everything owed; another only after a partial write,
   which either makes progress or meets EAGAIN and waits for select. *)
let handle_writable st conn =
  if conn.alive && egress_bytes conn > 0 then begin
    (try
       while egress_bytes conn > 0 do
         Fault.point "serve.write";
         let len = egress_bytes conn in
         let n = Unix.single_write conn.fd conn.out conn.out_lo len in
         conn.out_lo <- conn.out_lo + n;
         conn.sent <- conn.sent + n;
         retire_written st conn;
         if n < len then Obs.incr st.obs "served.write.partial"
       done;
       (* fully flushed: rewind, and let a backlog's buffer go *)
       conn.out_lo <- 0;
       conn.out_hi <- 0;
       if Bytes.length conn.out > 16 * out_initial then conn.out <- Bytes.create out_initial
     with
    | Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | Unix.Unix_error ((EPIPE | ECONNRESET), _, _) -> kill ~hangup:true st conn
    | Unix.Unix_error (_, _, _) -> kill st conn
    | Fault.Injected _ ->
        Obs.incr st.obs "served.fault.write";
        kill st conn);
    try_retire st conn
  end

let handle_accept st lfd =
  let continue = ref true in
  while !continue do
    match
      Fault.point "serve.accept";
      Unix.accept ~cloexec:true lfd
    with
    | fd, _ ->
        if List.length st.conns >= st.cfg.max_connections then
          (* connection-level shed: refuse before allocating state *)
          (try Unix.close fd with Unix.Unix_error (_, _, _) -> ())
        else begin
          Unix.set_nonblock fd;
          st.s_connections <- st.s_connections + 1;
          Obs.incr st.obs "served.connections";
          st.conns <- new_conn ~max_frame:st.cfg.max_frame fd :: st.conns
        end
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
        continue := false
    | exception Unix.Unix_error (_, _, _) -> continue := false
    | exception Fault.Injected _ ->
        (* one lost accept round; the listener backlog keeps the peer *)
        Obs.incr st.obs "served.fault.accept";
        continue := false
  done

(* -------------------------------------------------------------- *)
(* Batched evaluation                                             *)
(* -------------------------------------------------------------- *)

(* Batch sizes are counted in power-of-two buckets: [bucket n] is the
   smallest [k] with [2^k >= n], which indexes the counter names built
   once here instead of a [sprintf] per batch.  [bucket_from] is
   top-level rather than local to [bucket]: a local [let rec] would
   allocate a closure over [n] on every call, and [bucket] sits on the
   per-batch path (zero-alloc, enforced by tools/analyze/hotpaths.sexp). *)
let rec bucket_from k n = if 1 lsl k >= n then k else bucket_from (k + 1) n
let bucket n = bucket_from 0 n

let batch_counter =
  Array.init (Sys.int_size - 1) (fun k -> Printf.sprintf "served.batch.le%d" (1 lsl k))

let process_ingress st =
  while not (Queue.is_empty st.ingress) do
    let now = Obs.now_ns () in
    let batch = ref [] in
    let size = ref 0 in
    while !size < st.cfg.max_batch && not (Queue.is_empty st.ingress) do
      let p = Queue.pop st.ingress in
      if not p.p_conn.alive then ()
        (* its loss was already accounted when the connection died *)
      else if Int64.compare now p.p_deadline > 0 then begin
        st.s_timeouts <- st.s_timeouts + 1;
        Obs.incr st.obs "served.timeout";
        send_reply p.p_conn p.p_wire ~id:p.p_id ~status:Frame.Timeout Float.nan
      end
      else begin
        batch := p :: !batch;
        incr size
      end
    done;
    if !size > 0 then begin
      let batch = Array.of_list (List.rev !batch) in
      let points = Array.map (fun p -> p.p_point) batch in
      (* probe the memo, evaluate the misses, commit: the same call
         perfbench's in-process replay times *)
      let values =
        Core.Predictor.predict_batch ~cache:st.cache st.predictor points
      in
      Obs.incr st.obs "served.batches";
      Obs.incr st.obs batch_counter.(bucket !size);
      Array.iteri
        (fun i p -> send_reply p.p_conn p.p_wire ~id:p.p_id ~status:Frame.Ok values.(i))
        batch
    end
  done

(* -------------------------------------------------------------- *)
(* The event loop                                                 *)
(* -------------------------------------------------------------- *)

let open_listener cfg =
  match cfg.listener with
  | Unix_socket path ->
      if Sys.file_exists path then
        (try Unix.unlink path with Unix.Unix_error (_, _, _) -> ());
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      Unix.set_nonblock fd;
      fd
  | Tcp { host; port } ->
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
      Unix.listen fd 64;
      Unix.set_nonblock fd;
      fd

let validate_config cfg =
  let reject what = Error.invalid_input ~where:"Daemon.run" what in
  if cfg.max_pending < 1 then reject "max_pending < 1";
  if cfg.max_batch < 1 then reject "max_batch < 1";
  if Int64.compare cfg.deadline_ns 0L <= 0 then reject "deadline_ns <= 0";
  if cfg.max_egress < 64 then reject "max_egress < 64";
  if cfg.max_connections < 1 then reject "max_connections < 1";
  if cfg.cache_capacity < 1 then reject "cache_capacity < 1";
  if cfg.tick_s <= 0. then reject "tick_s <= 0"

let stats_of st =
  {
    connections = st.s_connections;
    requests = st.s_requests;
    answered = st.s_answered;
    shed = st.s_shed;
    timeouts = st.s_timeouts;
    bad_requests = st.s_bad_requests;
    protocol_errors = st.s_protocol_errors;
    reloads_ok = st.s_reloads_ok;
    reloads_failed = st.s_reloads_failed;
    lost = st.s_lost;
    hangups = st.s_hangups;
    cache = Core.Memo.stats st.cache;
  }

let run ?(obs = Obs.null) ?(control = control ()) ~predictor cfg =
  validate_config cfg;
  (* a peer that hangs up must cost its connection, not the process:
     writes to it then fail with EPIPE, which kills the connection *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let st =
    {
      cfg;
      obs;
      predictor;
      cache =
        Core.Memo.create ~obs ~capacity:cfg.cache_capacity
          ~space:predictor.Core.Predictor.space
          ~sample_size:cfg.grid_sample_size ();
      model_path = cfg.model_path;
      ingress = Queue.create ();
      conns = [];
      draining = false;
      read_buf = Bytes.create 65536;
      s_connections = 0;
      s_requests = 0;
      s_answered = 0;
      s_shed = 0;
      s_timeouts = 0;
      s_bad_requests = 0;
      s_protocol_errors = 0;
      s_reloads_ok = 0;
      s_reloads_failed = 0;
      s_lost = 0;
      s_hangups = 0;
    }
  in
  let listener = open_listener cfg in
  let listener_open = ref true in
  let close_listener () =
    if !listener_open then begin
      listener_open := false;
      (try Unix.close listener with Unix.Unix_error (_, _, _) -> ());
      match cfg.listener with
      | Unix_socket path -> (
          try Unix.unlink path with Unix.Unix_error (_, _, _) -> ())
      | Tcp _ -> ()
    end
  in
  Obs.with_span obs "served.run" @@ fun () ->
  let finished = ref false in
  while not !finished do
    (* control flags first: drain/reload latency is one tick at most *)
    if Atomic.get control.drain_flag && not st.draining then begin
      st.draining <- true;
      Obs.incr obs "served.drain";
      close_listener ()
    end;
    if Atomic.get control.reload_flag then begin
      Atomic.set control.reload_flag false;
      ignore (do_reload st (Atomic.get control.reload_path))
    end;
    st.conns <- List.filter (fun c -> c.alive) st.conns;
    let reads =
      (if !listener_open && not st.draining then [ listener ] else [])
      @ List.filter_map
          (fun c -> if c.alive && c.read_open then Some c.fd else None)
          st.conns
    in
    let writes =
      List.filter_map
        (fun c ->
          if c.alive && egress_bytes c > 0 then Some c.fd else None)
        st.conns
    in
    let readable =
      match Unix.select reads writes [] cfg.tick_s with
      | r, _, _ -> r
      | exception Unix.Unix_error (EINTR, _, _) -> []
    in
    if List.mem listener readable then handle_accept st listener;
    List.iter
      (fun c ->
        if c.alive && List.mem c.fd readable then handle_readable st c)
      st.conns;
    process_ingress st;
    (* everything this tick owes goes out now, whatever select said:
       replies appended since it returned are not in [writable] *)
    List.iter (fun c -> handle_writable st c) st.conns;
    (* slow-reader bound: a peer that will not drain its socket cannot
       hold daemon memory hostage *)
    List.iter
      (fun c ->
        if c.alive && egress_bytes c > cfg.max_egress then begin
          Obs.incr obs "served.egress_overflow";
          kill st c
        end)
      st.conns;
    if
      st.draining
      && Queue.is_empty st.ingress
      && List.for_all
           (fun c -> (not c.alive) || egress_bytes c = 0)
           st.conns
    then finished := true
  done;
  List.iter (fun c -> kill st c) st.conns;
  close_listener ();
  let s = stats_of st in
  let classified =
    s.cache.Core.Memo.hits + s.cache.Core.Memo.misses
    + s.cache.Core.Memo.bypasses
  in
  if classified > 0 then
    Obs.gauge obs "served.hit_rate"
      (float_of_int s.cache.Core.Memo.hits /. float_of_int classified);
  s
