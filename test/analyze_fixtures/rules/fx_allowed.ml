(* archpred-analyze: allow missing-mli -- fixture: every rule's pragma'd twin *)
(* archpred-analyze: allow poly-compare -- fixture reason *)
let sort (xs : float list) = List.sort compare xs
(* archpred-analyze: allow hashtbl-order -- fixture reason *)
let visit h = Hashtbl.iter (fun _ () -> ()) h
(* archpred-analyze: allow exit -- fixture reason *)
let quit () = exit 1
(* archpred-analyze: allow unsafe-cast -- fixture reason *)
let cast x = Obj.magic x
(* archpred-analyze: allow float-lit-eq -- fixture reason *)
let half x = x = 0.5
(* archpred-analyze: allow catchall-exn -- fixture reason *)
let swallow g = try g () with _ -> 0
(* archpred-analyze: allow unsafe-index -- fixture reason *)
let byte b i = Bytes.unsafe_get b i
(* archpred-analyze: allow impure -- fixture reason *)
let draw () = Random.int 5
(* archpred-analyze: allow impure -- fixture reason *)
let stamp () = Unix.gettimeofday ()
(* archpred-analyze: allow impure -- fixture reason *)
let say s = print_string s
(* archpred-analyze: allow impure -- fixture reason *)
let open_socket () = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0
