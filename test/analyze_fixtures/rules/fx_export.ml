(* dead-export: the exporter.  Tests place it in lib/ and its user,
   fx_export_user.ml, wherever a case needs it. *)

let used = 1
let hook = 2
let dead = 3
