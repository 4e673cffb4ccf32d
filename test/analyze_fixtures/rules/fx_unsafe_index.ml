(* unsafe-index: unchecked Bigarray, Bytes and Float.Array accessors,
   one through a local open.  Plain Array.unsafe_get stays legal. *)

let get1 a i = Bigarray.Array1.unsafe_get a i
let set2 a i v = Bigarray.(Array2.unsafe_set a i 0 v)
let byte b i = Bytes.unsafe_get b i
let fget a = Float.Array.unsafe_get a 0
let plain a = Array.unsafe_get a 0
