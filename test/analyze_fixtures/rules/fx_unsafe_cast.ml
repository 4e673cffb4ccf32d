(* unsafe-cast: Obj and Marshal. *)

let cast x = Obj.magic x
let freeze v = Marshal.to_string v []
