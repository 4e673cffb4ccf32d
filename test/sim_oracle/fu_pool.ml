include Archpred_sim.Fu_pool

type t = {
  cfg : config;
  (* For pipelined classes: how many issues we've granted this cycle. *)
  granted : int array;
  mutable granted_cycle : int;
  (* For unpipelined classes: cycle at which each unit frees up. We track a
     single aggregate free-count approximation per class since counts are
     tiny (1 unit in the default config). *)
  busy_until : int array array;
  mutable refused : int;
}

let create cfg =
  {
    cfg;
    granted = Array.make 7 0;
    granted_cycle = -1;
    busy_until = Array.map (fun c -> Array.make (count cfg c) 0) all_classes;
    refused = 0;
  }

let roll_cycle t cycle =
  if t.granted_cycle <> cycle then begin
    Array.fill t.granted 0 7 0;
    t.granted_cycle <- cycle
  end

(* Unpipelined: find a unit whose busy window has passed.  Top-level so
   each attempt is closure-free, and annotated [int] so [<=] is not a
   polymorphic compare; returns the unit index or -1. *)
let rec free_unit (units : int array) (cycle : int) i =
  if i >= Array.length units then -1
  else if units.(i) <= cycle then i
  else free_unit units cycle (i + 1)

let try_issue t ~cycle cls =
  roll_cycle t cycle;
  let idx = class_index cls in
  if is_pipelined cls then
    if t.granted.(idx) < count t.cfg cls then begin
      t.granted.(idx) <- t.granted.(idx) + 1;
      true
    end
    else begin
      t.refused <- t.refused + 1;
      false
    end
  else begin
    let units = t.busy_until.(idx) in
    match free_unit units cycle 0 with
    | -1 ->
        t.refused <- t.refused + 1;
        false
    | i ->
        units.(i) <- cycle + latency t.cfg cls;
        true
  end

let structural_stalls t = t.refused
let reset_stats t = t.refused <- 0
