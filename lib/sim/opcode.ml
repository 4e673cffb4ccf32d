type t =
  | Ialu
  | Imul
  | Idiv
  | Fadd
  | Fmul
  | Fdiv
  | Load
  | Store
  | Branch
  | Jump
  | Nop

let all = [ Ialu; Imul; Idiv; Fadd; Fmul; Fdiv; Load; Store; Branch; Jump; Nop ]

let to_int = function
  | Ialu -> 0
  | Imul -> 1
  | Idiv -> 2
  | Fadd -> 3
  | Fmul -> 4
  | Fdiv -> 5
  | Load -> 6
  | Store -> 7
  | Branch -> 8
  | Jump -> 9
  | Nop -> 10

let of_int = function
  | 0 -> Ialu
  | 1 -> Imul
  | 2 -> Idiv
  | 3 -> Fadd
  | 4 -> Fmul
  | 5 -> Fdiv
  | 6 -> Load
  | 7 -> Store
  | 8 -> Branch
  | 9 -> Jump
  | 10 -> Nop
  | n -> invalid_arg ("Opcode.of_int: " ^ string_of_int n)

let is_memory = function
  | Load | Store -> true
  | Ialu | Imul | Idiv | Fadd | Fmul | Fdiv | Branch | Jump | Nop -> false

let is_control = function
  | Branch | Jump -> true
  | Ialu | Imul | Idiv | Fadd | Fmul | Fdiv | Load | Store | Nop -> false

let uses_fp = function
  | Fadd | Fmul | Fdiv -> true
  | Ialu | Imul | Idiv | Load | Store | Branch | Jump | Nop -> false

let to_string = function
  | Ialu -> "ialu"
  | Imul -> "imul"
  | Idiv -> "idiv"
  | Fadd -> "fadd"
  | Fmul -> "fmul"
  | Fdiv -> "fdiv"
  | Load -> "load"
  | Store -> "store"
  | Branch -> "branch"
  | Jump -> "jump"
  | Nop -> "nop"
