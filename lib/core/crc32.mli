(** CRC-32 (IEEE 802.3, polynomial 0xEDB88320), the checksum framing both
    the shard journal lines and the model file's integrity trailer.  Pure OCaml, table-driven; no external dependency. *)

val string : string -> int32
(** CRC-32 of a whole string. *)

val update : int32 -> string -> pos:int -> len:int -> int32
(** Fold more bytes into a running checksum ([string s] is
    [update 0l s ~pos:0 ~len:(String.length s)]). *)

val to_hex : int32 -> string
(** Fixed-width lowercase hex, 8 characters. *)

val of_hex : string -> int32 option
(** Inverse of {!to_hex}; [None] unless exactly 8 hex digits. *)
