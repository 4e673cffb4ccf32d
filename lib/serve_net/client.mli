(** Blocking client for the prediction daemon, on either framing.

    One {!t} is one connection.  Requests may be pipelined: the daemon
    preserves per-connection request order, so the [k]-th reply on a
    connection answers its [k]-th request (ids let callers double-check).
    Used by the daemon tests and the load bench. *)

type t

val connect : ?retries:int -> ?retry_delay_s:float -> Daemon.listener -> t
(** Connect, retrying [ECONNREFUSED]/[ENOENT] (a daemon still binding)
    up to [retries] times (default 100 × 20 ms).  Other socket errors
    propagate as [Unix.Unix_error].

    [connect] sets SIGPIPE to ignored for the whole process, so that a
    daemon which goes away surfaces as an error from the next call
    instead of killing the process: every call below raises
    [Error.Archpred (Io_error _)] when the daemon closes or resets the
    connection ([EPIPE]/[ECONNRESET]). *)

val close : t -> unit

val predict : t -> Frame.wire -> id:int -> ?natural:bool -> float array -> unit
(** Send one predict request (does not wait for the reply). *)

val reload : t -> ?path:string -> unit -> unit
(** Send the JSON reload control message. *)

val recv : t -> Frame.response
(** Block for the next response.  Raises [Error.Archpred (Parse_error _)]
    if the daemon desyncs the stream and [Error.Archpred (Io_error _)]
    when the connection closes or resets. *)

type load = {
  sent : int;
  ok : int;
  shed : int;
  timeouts : int;
  other : int;  (** bad_request / shutting_down replies *)
  elapsed_ns : int64;
  throughput : float;  (** answered replies per second *)
  p50_ns : float;  (** per-request round-trip latency quantiles *)
  p99_ns : float;
  p999_ns : float;
  checksum : float;  (** sum of [ok] values — determinism anchor *)
}

val drive : t -> Frame.wire -> ?pipeline:int -> float array array -> load
(** [drive t wire points] sends one predict request per point with up
    to [pipeline] (default 64) outstanding, recording each request's
    round-trip latency; quantiles are over all replies whatever their
    status.  Each time replies free part of the window, the freed
    requests are encoded into one buffer, which is written out whenever
    it holds about 1 KiB; after each blocking read every reply already
    decoded is handled. *)
