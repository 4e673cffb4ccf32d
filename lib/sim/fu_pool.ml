type unit_class = Int_alu | Int_mul | Int_div | Fp_add | Fp_mul | Fp_div | Mem_port

type config = {
  int_alu : int * int;
  int_mul : int * int;
  int_div : int * int;
  fp_add : int * int;
  fp_mul : int * int;
  fp_div : int * int;
  mem_port : int * int;
}

let default_config =
  {
    int_alu = (4, 1);
    int_mul = (1, 3);
    int_div = (1, 20);
    fp_add = (2, 2);
    fp_mul = (1, 4);
    fp_div = (1, 12);
    mem_port = (2, 1);
  }

let class_of_opcode = function
  | Opcode.Ialu | Opcode.Branch | Opcode.Jump -> Some Int_alu
  | Opcode.Imul -> Some Int_mul
  | Opcode.Idiv -> Some Int_div
  | Opcode.Fadd -> Some Fp_add
  | Opcode.Fmul -> Some Fp_mul
  | Opcode.Fdiv -> Some Fp_div
  | Opcode.Load | Opcode.Store -> Some Mem_port
  | Opcode.Nop -> None

let spec cfg = function
  | Int_alu -> cfg.int_alu
  | Int_mul -> cfg.int_mul
  | Int_div -> cfg.int_div
  | Fp_add -> cfg.fp_add
  | Fp_mul -> cfg.fp_mul
  | Fp_div -> cfg.fp_div
  | Mem_port -> cfg.mem_port

let latency cfg c = snd (spec cfg c)
let count cfg c = fst (spec cfg c)

let class_index = function
  | Int_alu -> 0
  | Int_mul -> 1
  | Int_div -> 2
  | Fp_add -> 3
  | Fp_mul -> 4
  | Fp_div -> 5
  | Mem_port -> 6

let is_pipelined = function
  | Int_div | Fp_div -> false
  | Int_alu | Int_mul | Fp_add | Fp_mul | Mem_port -> true

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

let all_classes =
  [| Int_alu; Int_mul; Int_div; Fp_add; Fp_mul; Fp_div; Mem_port |]

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
