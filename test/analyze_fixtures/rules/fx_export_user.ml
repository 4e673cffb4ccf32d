(* dead-export: the user.  Names [used] directly and [hook] through a
   module alias; nothing names [dead]. *)

module E = Fx_export

let total = Fx_export.used + E.hook
