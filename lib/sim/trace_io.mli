(** Trace serialisation.

    A line-oriented text format so traces can be produced by external
    tools (binary instrumentation, other simulators) and fed to this
    simulator, or exported for inspection:

    {v archpred-trace 1
       <op> <dep1> <dep2> <addr> <pc> <taken> <target>
       ... v}

    where [<op>] is an {!Opcode.to_string} name, [<taken>] is [0]/[1], and
    the remaining fields are decimal integers.  One line per dynamic
    instruction, in program order. *)

val save : Trace.t -> string -> unit
(** Write a trace. Raises [Sys_error] on I/O failure. *)

val load : string -> Trace.t
(** Read a trace; validates it on the way in.  Total over the file's
    bytes: any content gives a trace or a typed error —
    [Archpred (Parse_error _)] with the offending line on malformed input
    or an invalid trace (reported at the last line), and
    [Archpred (Io_error _)] when the file cannot be opened. *)
