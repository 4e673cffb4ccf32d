(** The prediction daemon: a single-threaded [Unix.select] event loop
    that serves {!Frame} requests (JSON lines and binary, auto-detected
    per frame) over a Unix or TCP socket, batching requests across
    connections onto the SIMD kernel behind the quantized LRU memo.

    Robustness properties, each verifiable through the fault sites
    below and the counters in {!stats}:

    - {b isolation} — a malformed frame costs its own connection a
      [bad_request] reply and the read side of that socket, nothing
      more; requests it sent before desyncing are still answered;
    - {b backpressure} — the ingress queue is bounded ([max_pending];
      excess requests answer [overloaded]), queued requests expire
      against [deadline_ns] (answering [timeout]), and a peer that
      stops reading is disconnected at [max_egress] buffered bytes;
    - {b graceful drain} — {!request_drain} closes the listener,
      answers everything already accepted, flushes every socket and
      returns with [lost = 0];
    - {b hot reload} — {!request_reload} (or the JSON
      [{"cmd":"reload"}] control message) loads a model with
      {!Archpred_core.Persist} (CRC-checked), probes it — the batched
      kernel must agree bitwise with the scalar oracle on a grid
      sample — and swaps predictor and cache only on success; any
      failure keeps the old model serving.

    Egress: replies are encoded straight into one growable buffer per
    connection, which each loop tick flushes with one [write] (another
    only after a partial write).  A reply counts as [answered] once its
    last byte is written.

    Fault-injection sites (see {!Archpred_fault.Fault}):
    ["serve.accept"] before each accept, ["serve.read"] before each
    socket read, ["serve.write"] before each socket write,
    ["serve.reload"] at reload entry.  An injected fault is absorbed as
    the corresponding I/O failure (skipped accept round, one dead
    connection, one failed reload) — never a crash. *)

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

val default : config
(** Unix socket ["archpred.sock"], 4096 pending, batches of 256,
    200 ms deadline, 1 MiB frame and egress bounds, 64 connections, a
    4096-entry memo on a 90-level grid.  Every batch is evaluated on
    the event loop's own domain. *)

type stats = {
  connections : int;  (** accepted connections *)
  requests : int;  (** predict requests parsed *)
  answered : int;  (** replies fully flushed to a socket (any status) *)
  shed : int;  (** answered [overloaded] at the ingress bound *)
  timeouts : int;  (** answered [timeout] after queueing too long *)
  bad_requests : int;  (** answered [bad_request] (invalid point) *)
  protocol_errors : int;  (** connections that desynced mid-stream *)
  reloads_ok : int;
  reloads_failed : int;
  lost : int;
      (** parsed requests whose reply never flushed: everything still
          owed, down to the last byte, when its connection died;
          [answered + lost = requests] once the daemon returns *)
  hangups : int;
      (** the part of [lost] owed to peers that closed or reset their
          connection first ([EPIPE]/[ECONNRESET]), rather than ones the
          daemon cut off (fault, [max_egress], I/O error) *)
  cache : Archpred_core.Memo.stats;
}

type control
(** Shared handle for driving a running daemon from signal handlers,
    other domains, or tests.  All operations are atomic flags read once
    per loop tick. *)

val control : unit -> control

val request_drain : control -> unit
(** Stop accepting, answer everything accepted, flush, return. *)

val request_reload : ?path:string -> control -> unit
(** Trigger a hot reload from [path] (default: the configured or last
    reloaded model path). *)

val run :
  ?obs:Archpred_obs.t ->
  ?control:control ->
  predictor:Archpred_core.Predictor.t ->
  config ->
  stats
(** Serve until a drain completes.  Blocks the calling thread; drive it
    from another domain (tests) or wire signals to [control] (CLI).

    [run] sets SIGPIPE to ignored for the whole process and leaves it so:
    a peer that hangs up with replies pending must cost its own
    connection (the write fails with [EPIPE], the connection is killed
    and its owed replies count as [lost] and [hangups]), not kill the
    daemon.
    Raises [Error.Archpred (Invalid_input _)] on a nonsensical config
    and lets listener-setup [Unix.Unix_error]s escape; once the loop is
    entered, per-connection failures never escape.

    Counters on [obs]: [served.requests], [served.answered],
    [served.shed], [served.timeout], [served.bad_request],
    [served.protocol_error], [served.connections], [served.batches],
    [served.batch.leN] (power-of-two batch-size histogram),
    [served.reload.ok], [served.reload.failed], [served.lost],
    [served.write.partial] (writes the socket took only part of),
    [served.fault.*], and gauge [served.hit_rate]. *)
