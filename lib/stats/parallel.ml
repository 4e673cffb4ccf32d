let env_domains () =
  match Sys.getenv_opt "ARCHPRED_DOMAINS" with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some d when d >= 1 -> Some d
      | Some _ ->
          Archpred_obs.Error.invalid_env ~var:"ARCHPRED_DOMAINS"
            (Printf.sprintf "must be a positive integer, got %S" s)
      | None ->
          Archpred_obs.Error.invalid_env ~var:"ARCHPRED_DOMAINS"
            (Printf.sprintf "not an integer: %S" s))

let default_domains () =
  match env_domains () with
  | Some d -> d
  | None -> min 8 (max 1 (Domain.recommended_domain_count ()))

(* A persistent pool of worker domains.  Spawning a domain costs tens of
   microseconds and scales poorly when a hot loop (candidate scoring, grid
   cells, discrepancy rows) issues thousands of small parallel sections, so
   the workers are created once, on first use, and then sleep on a
   condition variable between work items.

   The caller of [run] participates: while its own tasks are outstanding it
   keeps draining the shared queue (executing tasks that may belong to a
   concurrently submitted call), which also makes nested parallel sections
   deadlock-free — the innermost section's tasks are always runnable by
   whoever is waiting on them. *)
module Pool = struct
  type t = {
    mutex : Mutex.t;
    work : Condition.t;  (* queue gained tasks, or shutdown *)
    finished : Condition.t;  (* some call's last task completed *)
    queue : (unit -> unit) Queue.t;
    mutable shutdown : bool;
  }

  let worker pool () =
    let running = ref true in
    while !running do
      Mutex.lock pool.mutex;
      while Queue.is_empty pool.queue && not pool.shutdown do
        Condition.wait pool.work pool.mutex
      done;
      match Queue.take_opt pool.queue with
      | Some task ->
          Mutex.unlock pool.mutex;
          task ()
      | None ->
          (* Shutdown with an empty queue. *)
          Mutex.unlock pool.mutex;
          running := false
    done

  let instance =
    lazy
      (let pool =
         {
           mutex = Mutex.create ();
           work = Condition.create ();
           finished = Condition.create ();
           queue = Queue.create ();
           shutdown = false;
         }
       in
       let workers =
         List.init
           (max 0 (default_domains () - 1))
           (fun _ -> Domain.spawn (worker pool))
       in
       if workers <> [] then
         at_exit (fun () ->
             Mutex.lock pool.mutex;
             pool.shutdown <- true;
             Condition.broadcast pool.work;
             Mutex.unlock pool.mutex;
             List.iter Domain.join workers);
       pool)

  (* Run every task to completion.  Tasks must not raise (callers capture
     exceptions into per-task slots themselves). *)
  let run tasks =
    let pool = Lazy.force instance in
    let pending = ref (Array.length tasks) in
    let wrap task () =
      Fun.protect task ~finally:(fun () ->
          Mutex.lock pool.mutex;
          decr pending;
          if !pending = 0 then Condition.broadcast pool.finished;
          Mutex.unlock pool.mutex)
    in
    Mutex.lock pool.mutex;
    Array.iter (fun t -> Queue.add (wrap t) pool.queue) tasks;
    Condition.broadcast pool.work;
    let rec drain () =
      if !pending > 0 then
        match Queue.take_opt pool.queue with
        | Some task ->
            Mutex.unlock pool.mutex;
            task ();
            Mutex.lock pool.mutex;
            drain ()
        | None ->
            Condition.wait pool.finished pool.mutex;
            drain ()
    in
    drain ();
    Mutex.unlock pool.mutex
end

let resolve = function Some d -> max 1 d | None -> default_domains ()

(* Observability probe.  Checking [Lazy.is_val] first matters: forcing the
   lazy would spawn the worker domains just to report that their queue is
   empty. *)
let queue_depth () =
  if not (Lazy.is_val Pool.instance) then 0
  else begin
    let pool = Lazy.force Pool.instance in
    Mutex.lock pool.Pool.mutex;
    let d = Queue.length pool.Pool.queue in
    Mutex.unlock pool.Pool.mutex;
    d
  end

(* The lowest failing index of an [init] section, with its exception. *)
type failure = { index : int; exn : exn; bt : Printexc.raw_backtrace }

let rec record_failure slot index exn bt =
  let cur = Atomic.get slot in
  match cur with
  | Some f when f.index < index -> ()
  | Some _ | None ->
      if not (Atomic.compare_and_set slot cur (Some { index; exn; bt })) then
        record_failure slot index exn bt

let init ?domains n f =
  if n < 0 then invalid_arg "Parallel.init: negative length";
  if n = 0 then [||]
  else
    let d = min (resolve domains) n in
    if d = 1 then begin
      (* Explicit loop: left-to-right evaluation order is part of the
         contract (unlike [Array.init]'s unspecified order). *)
      let results = Array.make n (f 0) in
      for i = 1 to n - 1 do
        results.(i) <- f i
      done;
      results
    end
    else begin
      (* Every task claims the next unclaimed index until none is left,
         so a domain that drew cheap elements keeps drawing while another
         finishes an expensive one.  Results land in their index slots.
         The first result to finish sizes the unboxed buffer (filling it
         with itself); a task that loses that race writes into the
         winner's buffer, and every slot is overwritten by its owner. *)
      let next = Atomic.make 0 in
      let buffer = Atomic.make None in
      let failure = Atomic.make None in
      let store i v =
        match Atomic.get buffer with
        | Some a -> a.(i) <- v
        | None ->
            let a = Array.make n v in
            if not (Atomic.compare_and_set buffer None (Some a)) then
              (Option.get (Atomic.get buffer)).(i) <- v
      in
      let task () =
        let i = ref (Atomic.fetch_and_add next 1) in
        while !i < n do
          (match f !i with
          | v -> store !i v
          (* archpred-analyze: allow catchall-exn -- transported; the lowest failing index is re-raised on the caller *)
          | exception e ->
              record_failure failure !i e (Printexc.get_raw_backtrace ()));
          i := Atomic.fetch_and_add next 1
        done
      in
      Pool.run (Array.make d task);
      match Atomic.get failure with
      | Some fl -> Printexc.raise_with_backtrace fl.exn fl.bt
      | None -> Option.get (Atomic.get buffer)
    end

let map ?domains f xs =
  let n = Array.length xs in
  if n = 0 then [||] else init ?domains n (fun i -> f xs.(i))

(* ---------- worker fault isolation ---------- *)

(* Cross-run totals, mirrored into observability counters by the callers
   that own an obs handle (Build.train records the per-stage deltas). *)
let retries_counter = Atomic.make 0
let failed_counter = Atomic.make 0
let retries_total () = Atomic.get retries_counter
let failed_total () = Atomic.get failed_counter

(* One isolated attempt sequence: run [f x] up to [1 + retries] times,
   never letting an exception escape into the pool.  The budget is a
   deterministic per-element constant, so which elements end in [Error]
   does not depend on the domain count or scheduling (given [f] fails
   deterministically per attempt). *)
let isolate ~retries f x =
  let budget = max 0 retries in
  let rec go attempt =
    match
      Archpred_fault.Fault.point "pool.task";
      f x
    with
    | v -> Ok v
    (* archpred-analyze: allow catchall-exn -- task isolation boundary: the retry budget, then Error e, is the sanctioned recovery path *)
    | exception e ->
        if attempt < budget then begin
          Atomic.incr retries_counter;
          go (attempt + 1)
        end
        else begin
          Atomic.incr failed_counter;
          Error e
        end
  in
  go 0

let map_fallible ?domains ?(retries = 0) f xs =
  map ?domains (isolate ~retries f) xs
