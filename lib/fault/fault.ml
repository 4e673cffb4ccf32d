exception Injected of string

type site = { mutable hits : int; mutable armed : (int * bool) option }

let lock = Mutex.create ()
let table : (string, site) Hashtbl.t = Hashtbl.create 16
let recording = ref false

(* The fast path of [point] must not take the mutex: disarmed sites sit
   on hot loops (every simulation task, every journal append).  A single
   atomic flag flips on when the harness has any work to do. *)
let on = Atomic.make false

let refresh_on () =
  Atomic.set on
    (* archpred-analyze: allow hashtbl-order -- commutative boolean OR over sites *)
    (!recording || Hashtbl.fold (fun _ s acc -> acc || s.armed <> None) table false)

let site_of name =
  match Hashtbl.find_opt table name with
  | Some s -> s
  | None ->
      let s = { hits = 0; armed = None } in
      Hashtbl.add table name s;
      s

let point name =
  if Atomic.get on then begin
    Mutex.lock lock;
    let fire =
      (* [on] may have flipped off between the load and the lock. *)
      (* archpred-analyze: allow hashtbl-order -- commutative boolean OR over sites *)
      if not (!recording || Hashtbl.fold (fun _ s acc -> acc || s.armed <> None) table false)
      then false
      else begin
        let s = site_of name in
        s.hits <- s.hits + 1;
        match s.armed with
        | Some (k, sticky) -> if sticky then s.hits >= k else s.hits = k
        | None -> false
      end
    in
    Mutex.unlock lock;
    if fire then raise (Injected name)
  end

let arm ~site ~after ?(sticky = false) () =
  if after < 1 then invalid_arg "Fault.arm: after < 1";
  Mutex.lock lock;
  (site_of site).armed <- Some (after, sticky);
  refresh_on ();
  Mutex.unlock lock

let disarm name =
  Mutex.lock lock;
  (match Hashtbl.find_opt table name with
  | Some s -> s.armed <- None
  | None -> ());
  refresh_on ();
  Mutex.unlock lock

let reset () =
  Mutex.lock lock;
  Hashtbl.reset table;
  recording := false;
  refresh_on ();
  Mutex.unlock lock

let record flag =
  Mutex.lock lock;
  recording := flag;
  refresh_on ();
  Mutex.unlock lock

let hits name =
  Mutex.lock lock;
  let n = match Hashtbl.find_opt table name with Some s -> s.hits | None -> 0 in
  Mutex.unlock lock;
  n

let active () = Atomic.get on
