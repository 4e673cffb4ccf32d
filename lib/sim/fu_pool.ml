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

let all_classes =
  [| Int_alu; Int_mul; Int_div; Fp_add; Fp_mul; Fp_div; Mem_port |]
