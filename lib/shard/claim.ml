module Obs = Archpred_obs
module Fault = Archpred_fault.Fault

let claims_dir dir = Filename.concat dir "claims"
let path dir name = Filename.concat (claims_dir dir) (name ^ ".claim")

let init ~dir =
  let d = claims_dir dir in
  match Unix.mkdir d 0o755 with
  | () -> ()
  | exception Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  | exception Unix.Unix_error (err, _, _) ->
      Obs.Error.io_error ~path:d (Unix.error_message err)

let claim ~dir ~name ~owner =
  Fault.point "shard.claim";
  let p = path dir name in
  match
    open_out_gen [ Open_wronly; Open_creat; Open_excl; Open_binary ] 0o644 p
  with
  | oc ->
      (* The exclusive create is the atomic claim; the owner id inside is
         bookkeeping for crash recovery, not part of the race. *)
      output_string oc owner;
      close_out oc;
      true
  | exception Sys_error msg ->
      if Sys.file_exists p then false else Obs.Error.io_error ~path:p msg

let owner ~dir ~name =
  let p = path dir name in
  match open_in_bin p with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match really_input_string ic (in_channel_length ic) with
          | s -> Some s
          | exception End_of_file -> None)

let release ~dir ~name =
  match Sys.remove (path dir name) with
  | () -> ()
  | exception Sys_error _ ->
      (* Already gone (a concurrent release) — releasing is idempotent. *)
      ()

let release_where ~dir ~owned ~complete =
  let d = claims_dir dir in
  match Sys.readdir d with
  | exception Sys_error _ -> ()
  | files ->
      Array.sort String.compare files;
      Array.iter
        (fun file ->
          match Filename.chop_suffix_opt ~suffix:".claim" file with
          | None -> ()
          | Some name -> (
              match Plan.unit_of_name name with
              | None -> ()
              | Some u ->
                  if
                    owned name
                    && not
                         (complete ~stage:u.Plan.stage ~lo:u.Plan.lo
                            ~hi:u.Plan.hi)
                  then release ~dir ~name))
        files

let release_incomplete ~dir ~owner:dead ~complete =
  release_where ~dir ~complete ~owned:(fun name ->
      match owner ~dir ~name with
      | Some o -> String.equal o dead
      | None -> false)

let release_all_incomplete ~dir ~complete =
  release_where ~dir ~complete ~owned:(fun _ -> true)
