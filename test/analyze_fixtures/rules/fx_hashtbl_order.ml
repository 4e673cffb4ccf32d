(* hashtbl-order: unordered iteration, direct, through a module alias
   (which only path resolution sees) and through an expression-local
   module alias. *)

let visit h = Hashtbl.iter (fun _ () -> ()) h

module H = Hashtbl

let total h = H.fold (fun _ v acc -> acc + v) h 0

let keys h = let module H = Hashtbl in H.iter (fun _ () -> ()) h
