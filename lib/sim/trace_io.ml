let magic = "archpred-trace"
let version = 1

let to_channel oc trace =
  Printf.fprintf oc "%s %d\n" magic version;
  for i = 0 to Trace.length trace - 1 do
    let inst = Trace.get trace i in
    Printf.fprintf oc "%s %d %d %d %d %d %d\n"
      (Opcode.to_string inst.Trace.op)
      inst.Trace.dep1 inst.Trace.dep2 inst.Trace.addr inst.Trace.pc
      (if inst.Trace.taken then 1 else 0)
      inst.Trace.target
  done

let save trace path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> to_channel oc trace)

let opcode_of_string s =
  List.find_opt (fun o -> Opcode.to_string o = s) Opcode.all

let where = "Trace_io"

let of_channel ic =
  let fail line msg = Archpred_obs.Error.parse_error ~where ~line msg in
  (match In_channel.input_line ic with
  | Some header -> (
      match String.split_on_char ' ' header with
      | [ m; v ] when m = magic ->
          if int_of_string_opt v <> Some version then
            fail 1 "unsupported version"
      | _ -> fail 1 "not an archpred trace file")
  | None -> fail 1 "empty file");
  let builder = Trace.Builder.create () in
  let line_no = ref 1 in
  let rec read () =
    match In_channel.input_line ic with
    | None -> ()
    | Some line ->
        incr line_no;
        if String.trim line <> "" then begin
          (match
             String.split_on_char ' ' (String.trim line)
             |> List.filter (fun w -> w <> "")
           with
          | [ op; dep1; dep2; addr; pc; taken; target ] -> (
              match opcode_of_string op with
              | None -> fail !line_no ("unknown opcode " ^ op)
              | Some op ->
                  let int s =
                    match int_of_string_opt s with
                    | Some v -> v
                    | None -> fail !line_no ("bad integer " ^ s)
                  in
                  Trace.Builder.add builder
                    {
                      Trace.op;
                      dep1 = int dep1;
                      dep2 = int dep2;
                      addr = int addr;
                      pc = int pc;
                      taken = int taken <> 0;
                      target = int target;
                    })
          | _ -> fail !line_no "expected 7 fields");
          read ()
        end
        else read ()
  in
  read ();
  let trace = Trace.Builder.finish builder in
  (match Trace.validate trace with
  | Ok () -> ()
  | Error msg -> fail !line_no ("invalid trace: " ^ msg));
  trace

let load path =
  let ic =
    match open_in_bin path with
    | ic -> ic
    | exception Sys_error msg -> Archpred_obs.Error.io_error ~path msg
  in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> of_channel ic)
