(* Built at module initialisation, not on first use: [update] runs
   inside parallel sections, where a first force could race. *)
let table =
  Array.init 256 (fun n ->
      let c = ref (Int32.of_int n) in
      for _ = 0 to 7 do
        c :=
          if Int32.logand !c 1l <> 0l then
            Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
          else Int32.shift_right_logical !c 1
      done;
      !c)

let update crc s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Crc32.update";
  let c = ref (Int32.lognot crc) in
  for i = pos to pos + len - 1 do
    let idx =
      Int32.to_int (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code s.[i]))) 0xFFl)
    in
    c := Int32.logxor table.(idx) (Int32.shift_right_logical !c 8)
  done;
  Int32.lognot !c

let string s = update 0l s ~pos:0 ~len:(String.length s)
let to_hex c = Printf.sprintf "%08lx" c

let of_hex s =
  if String.length s <> 8 then None
  else
    let ok = String.for_all (function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false) s in
    if not ok then None else Int32.of_string_opt ("0x" ^ s)
