(* catchall-exn: handlers that catch every exception and do not
   re-raise it.  Re-raising and specific handlers are not flagged. *)

let swallow g = try g () with _ -> 0
let named g = try g () with e -> ignore e; 0
let exception_any g = match g () with x -> x | exception _ -> 0
let reraise g = try g () with e -> raise e
let specific g = try g () with Not_found -> 0
