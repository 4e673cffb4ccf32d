type level = Scalar | Avx2 | Avx512

external host_rank : unit -> int = "archpred_simd_host" [@@noalloc]
external current_rank : unit -> int = "archpred_simd_current" [@@noalloc]
external swap_cap : int -> int = "archpred_simd_swap_cap" [@@noalloc]

let of_rank = function 0 -> Scalar | 1 -> Avx2 | _ -> Avx512
let rank = function Scalar -> 0 | Avx2 -> 1 | Avx512 -> 2
let level () = of_rank (current_rank ())
let training () = of_rank (Int.min 1 (current_rank ()))

let supported () =
  List.filter (fun l -> rank l <= host_rank ()) [ Scalar; Avx2; Avx512 ]

let to_string = function
  | Scalar -> "scalar"
  | Avx2 -> "avx2"
  | Avx512 -> "avx512"

let with_cap l f =
  let prev = swap_cap (rank l) in
  Fun.protect ~finally:(fun () -> ignore (swap_cap prev)) f
