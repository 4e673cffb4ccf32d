(* The retired unix-net rule, now impure: sockets and raw-fd I/O.
   Unix.fsync is file durability, not networking. *)

let open_socket () = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0
let poll fds = Unix.select fds [] [] 0.1
let pull fd b = Unix.read fd b 0 1
let sync fd = Unix.fsync fd
