module Error = Archpred_obs.Error
module Json = Archpred_obs.Json

type severity = Error | Warn

type finding = {
  rule : string;
  severity : severity;
  file : string;
  line : int;
  col : int;
  message : string;
}

type scope = Lib | Bin | Bench | Test | Tools

let scope_of_rel rel =
  match String.split_on_char '/' rel with
  | "lib" :: _ -> Some Lib
  | "bin" :: _ -> Some Bin
  | "bench" :: _ -> Some Bench
  | "test" :: _ -> Some Test
  | "tools" :: _ -> Some Tools
  | _ -> None

let rules =
  [
    ( "random-global",
      "global Random state (Random.self_init, Random.int, ...) anywhere \
       but Stats.Rng; all randomness must flow from an explicit seed" );
    ( "poly-compare",
      "polymorphic compare/Stdlib.compare in model code; use Float.compare, \
       Int.compare, String.compare or a per-type comparator" );
    ( "hashtbl-order",
      "Hashtbl.iter/Hashtbl.fold in result-path code; iteration order is \
       unspecified, use Stats.Tbl sorted helpers" );
    ( "wall-clock",
      "wall-clock reads (Unix.gettimeofday, Unix.time, Sys.time) outside \
       lib/obs and bench/; use the monotonic clock via Archpred_obs" );
    ( "stdout-print",
      "direct stdout printing in lib/ (print_string, Printf.printf, \
       Format.printf); route output through an Archpred_obs sink or a \
       caller-supplied formatter" );
    ("exit", "exit outside bin/; libraries must raise, not terminate");
    ( "unsafe-cast",
      "Obj.* or Marshal.* breaks abstraction and portable persistence; \
       use typed serialisation (Persist)" );
    ( "float-lit-eq",
      "(=)/(<>) against a float literal (or a float-literal pattern); use \
       Float.equal or an explicit tolerance" );
    ( "catchall-exn",
      "catch-all exception handler can swallow Fault.Injected or \
       Parallel.Deadline_exceeded; match specific exceptions or re-raise" );
    ( "missing-mli",
      "every module under lib/ must have an interface (.mli) so the \
       public surface is reviewed, not accidental" );
    ( "unsafe-index",
      "bounds-unchecked Bigarray / Float.Array accessors (unsafe_get, \
       unsafe_set) outside the batch kernel; only lib/rbf/batch_kernel.ml \
       may skip bounds checks, behind its own validation" );
    ( "unix-net",
      "Unix sockets and raw fd I/O (socket, bind, listen, accept, select, \
       read, write, ...) outside lib/serve_net/; the service layer owns \
       every nondeterministic network edge so result paths stay pure" );
  ]

let rule_known r = List.mem_assoc r rules

(* ------------------------------------------------------------------ *)
(* Forbidden identifiers                                              *)
(* ------------------------------------------------------------------ *)

(* A use of [Stdlib.exit] and a bare [exit] are the same thing; compare
   normalised paths. *)
let normalize = function "Stdlib" :: rest -> rest | parts -> parts

let stdout_printers =
  [
    "print_string";
    "print_endline";
    "print_newline";
    "print_int";
    "print_float";
    "print_char";
    "print_bytes";
  ]

let ident_rule ~scope parts =
  let in_scope scopes = List.mem scope scopes in
  match normalize parts with
  | "Random" :: _ ->
      Some
        ( "random-global",
          "use of the global Random generator (`"
          ^ String.concat "." parts
          ^ "`); draw from Stats.Rng with an explicit seed" )
  | [ "compare" ] when in_scope [ Lib; Bench; Tools ] ->
      Some
        ( "poly-compare",
          "polymorphic `compare`; floats compare bitwise-unordered under it \
           -- use Float.compare / Int.compare / String.compare" )
  | [ "Pervasives"; "compare" ] when in_scope [ Lib; Bench; Tools ] ->
      Some ("poly-compare", "polymorphic `Pervasives.compare`")
  | [ "Hashtbl"; ("iter" | "fold") ] when in_scope [ Lib; Bench; Tools ] ->
      Some
        ( "hashtbl-order",
          "`" ^ String.concat "." parts
          ^ "` iterates in unspecified order; use Stats.Tbl.sorted_bindings \
             / iter_sorted / fold_sorted" )
  | [ "Unix"
    ; ( "socket" | "socketpair" | "bind" | "listen" | "accept" | "connect"
      | "select" | "recv" | "recvfrom" | "send" | "sendto" | "send_substring"
      | "shutdown" | "setsockopt" | "getsockopt" | "getsockname"
      | "getpeername" | "getaddrinfo" | "gethostbyname" | "inet_addr_of_string"
      | "open_connection" | "establish_server" | "set_nonblock"
      | "clear_nonblock" | "read" | "write" | "single_write"
      | "write_substring" ) ]
    when in_scope [ Lib ] ->
      Some
        ( "unix-net",
          "`" ^ String.concat "." parts
          ^ "` does network / raw-fd I/O from library code; only \
             lib/serve_net/ owns that edge" )
  | [ "Unix"; ("gettimeofday" | "time" | "times") ] | [ "Sys"; "time" ]
    when in_scope [ Lib; Bin; Test; Tools ] ->
      Some
        ( "wall-clock",
          "wall-clock read `" ^ String.concat "." parts
          ^ "` is not monotonic (NTP slew); use Archpred_obs.now_ns" )
  | [ f ] when List.mem f stdout_printers && in_scope [ Lib ] ->
      Some ("stdout-print", "`" ^ f ^ "` writes to stdout from library code")
  | [ "Printf"; "printf" ]
  | [ "Format"; ("printf" | "print_string" | "print_newline" | "print_float") ]
    when in_scope [ Lib ] ->
      Some
        ( "stdout-print",
          "`" ^ String.concat "." parts ^ "` writes to stdout from library \
                                           code" )
  | [ "exit" ] when in_scope [ Lib; Bench; Test ] ->
      Some ("exit", "`exit` terminates the process from non-bin code")
  | "Obj" :: _ ->
      Some ("unsafe-cast", "`" ^ String.concat "." parts ^ "` defeats typing")
  | "Marshal" :: _ ->
      Some
        ( "unsafe-cast",
          "`" ^ String.concat "." parts
          ^ "` is unversioned binary persistence; use Persist" )
  (* Bounds-unchecked accessors on Bigarray / Float.Array / Bytes.
     Plain [Array.unsafe_*] stays legal (hot linalg loops use it after
     explicit dimension checks); the raw-memory and byte-string
     variants are confined to the sanctioned batch kernels, which
     validate their index ranges once per batch. *)
  | normalized when in_scope [ Lib ] -> (
      match List.rev normalized with
      | last :: mods
        when String.starts_with ~prefix:"unsafe_" last
             && (List.exists
                   (fun m ->
                     List.mem m
                       [ "Bigarray"; "Array1"; "Array2"; "Array3"; "Genarray" ])
                   mods
                || List.mem "Bytes" mods
                ||
                match mods with "Array" :: "Float" :: _ -> true | _ -> false)
        ->
          Some
            ( "unsafe-index",
              "`" ^ String.concat "." parts
              ^ "` skips bounds checks; only the sanctioned batch \
                 kernels (rbf/batch_kernel, core/memo) may do that" )
      | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* AST walk                                                           *)
(* ------------------------------------------------------------------ *)

open Parsetree

let pos_of (loc : Location.t) =
  let p = loc.loc_start in
  (p.pos_lnum, p.pos_cnum - p.pos_bol)

let rec is_float_lit e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_apply
      ( { pexp_desc = Pexp_ident { txt = Lident ("~-." | "~-" | "~+." | "~+"); _ }; _ },
        [ (_, a) ] ) ->
      is_float_lit a
  | _ -> false

(* A case pattern that catches every exception: [_], a variable, or an
   alias/or-pattern reducing to one.  Returns the bound name if any. *)
let rec catchall p =
  match p.ppat_desc with
  | Ppat_any -> Some None
  | Ppat_var v -> Some (Some v.txt)
  | Ppat_alias (inner, v) -> (
      match catchall inner with Some _ -> Some (Some v.txt) | None -> None)
  | Ppat_or (a, b) -> (
      match catchall a with Some r -> Some r | None -> catchall b)
  | _ -> None

(* For [match ... with exception p -> ...] cases. *)
let rec exception_catchall p =
  match p.ppat_desc with
  | Ppat_exception inner -> catchall inner
  | Ppat_or (a, b) -> (
      match exception_catchall a with
      | Some r -> Some r
      | None -> exception_catchall b)
  | _ -> None

(* Does [body] re-raise the variable [name] (raise / raise_notrace /
   Printexc.raise_with_backtrace)?  A handler that logs and re-raises is
   not a swallower. *)
let reraises name body =
  let found = ref false in
  let expr (it : Ast_iterator.iterator) e =
    (match e.pexp_desc with
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) -> (
        match normalize (Longident.flatten txt) with
        | [ "raise" ] | [ "raise_notrace" ] | [ "Printexc"; "raise_with_backtrace" ]
          ->
            if
              List.exists
                (fun (_, a) ->
                  match a.pexp_desc with
                  | Pexp_ident { txt = Lident v; _ } -> String.equal v name
                  | _ -> false)
                args
            then found := true
        | _ -> ())
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.expr it body;
  !found

let collect ~scope ast_kind =
  let acc = ref [] in
  let add loc rule message =
    let line, col = pos_of loc in
    acc := (rule, line, col, message) :: !acc
  in
  let check_handler_case ~exception_only (c : case) =
    let hit =
      if exception_only then exception_catchall c.pc_lhs else catchall c.pc_lhs
    in
    match (hit, c.pc_guard) with
    | Some name, None ->
        let swallows =
          match name with None -> true | Some v -> not (reraises v c.pc_rhs)
        in
        if swallows then
          add c.pc_lhs.ppat_loc "catchall-exn"
            "catch-all exception handler (would swallow Fault.Injected / \
             Parallel.Deadline_exceeded); match specific exceptions or \
             re-raise"
    | _ -> ()
  in
  let expr (it : Ast_iterator.iterator) e =
    (match e.pexp_desc with
    | Pexp_ident { txt; loc } -> (
        match ident_rule ~scope (Longident.flatten txt) with
        | Some (rule, msg) -> add loc rule msg
        | None -> ())
    | Pexp_apply
        ({ pexp_desc = Pexp_ident { txt = Lident ("=" | "<>" | "==" | "!="); _ }; _ }, args)
      when List.exists (fun (_, a) -> is_float_lit a) args ->
        add e.pexp_loc "float-lit-eq"
          "equality against a float literal; use Float.equal or a tolerance"
    | Pexp_try (_, cases) ->
        List.iter (check_handler_case ~exception_only:false) cases
    | Pexp_match (_, cases) ->
        List.iter (check_handler_case ~exception_only:true) cases
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let pat (it : Ast_iterator.iterator) p =
    (match p.ppat_desc with
    | Ppat_constant (Pconst_float _)
    | Ppat_interval (Pconst_float _, _)
    | Ppat_interval (_, Pconst_float _) ->
        add p.ppat_loc "float-lit-eq"
          "float literal in a pattern matches by exact equality"
    | _ -> ());
    Ast_iterator.default_iterator.pat it p
  in
  let it = { Ast_iterator.default_iterator with expr; pat } in
  (match ast_kind with
  | `Structure s -> it.structure it s
  | `Signature s -> it.signature it s);
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Pragmas                                                            *)
(* ------------------------------------------------------------------ *)

type pragma = { p_line : int; p_rule : string; mutable p_used : bool }

let strip s = String.trim s

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

(* Accept "-", "--" or a UTF-8 em-dash as the rule/reason separator. *)
let strip_dashes s =
  let n = String.length s in
  let i = ref 0 in
  let progressing = ref true in
  while !progressing && !i < n do
    if s.[!i] = '-' then incr i
    else if !i + 2 < n && s.[!i] = '\xe2' && s.[!i + 1] = '\x80' then i := !i + 3
    else progressing := false
  done;
  String.sub s !i (n - !i)

(* Parse pragma comments.  Grammar, one pragma per comment:
     (* archpred-lint: allow <rule> -- reason *)
   Pragmas are read from the lexer's comment list (not raw lines), so
   pragma-shaped text inside string literals is inert.  Malformed
   pragmas (missing "allow", unknown rule, empty reason) are reported
   as [bad-pragma] findings rather than silently ignored. *)
let scan_pragmas comments =
  let pragmas = ref [] and bad = ref [] in
  List.iter
    (fun (text, (loc : Location.t)) ->
      let lineno = loc.loc_start.pos_lnum in
      let key = "archpred-lint:" in
      let klen = String.length key in
      (* A pragma is a comment *starting* with the key (modulo leading
         whitespace); comments that merely mention the grammar mid-text
         (docs quoting `(* archpred-lint: ... *)`) are inert. *)
      match
        let t = strip text in
        if String.length t >= klen && String.equal (String.sub t 0 klen) key
        then Some t
        else None
      with
      | None -> ()
      | Some t ->
          let rest = strip (String.sub t klen (String.length t - klen)) in
          if not (starts_with ~prefix:"allow" rest) then
            bad := (lineno, "pragma must be `allow <rule> -- reason`") :: !bad
          else
            let rest = strip (String.sub rest 5 (String.length rest - 5)) in
            let rule, after =
              match String.index_opt rest ' ' with
              | Some j ->
                  ( String.sub rest 0 j,
                    String.sub rest (j + 1) (String.length rest - j - 1) )
              | None -> (rest, "")
            in
            let rule =
              (* tolerate `allow rule--reason` with no space *)
              match String.index_opt rule '-' with
              | Some j when j > 0 && j < String.length rule - 1 && rule.[j + 1] = '-'
                ->
                  String.sub rule 0 j
              | _ -> rule
            in
            if not (rule_known rule) then
              bad := (lineno, "unknown rule `" ^ rule ^ "` in pragma") :: !bad
            else
              let reason =
                let r = strip (strip_dashes (strip after)) in
                if
                  String.length r >= 2
                  && String.equal (String.sub r (String.length r - 2) 2) "*)"
                then strip (String.sub r 0 (String.length r - 2))
                else r
              in
              if String.equal reason "" then
                bad :=
                  (lineno, "pragma for `" ^ rule ^ "` has no reason text") :: !bad
              else
                pragmas :=
                  { p_line = lineno; p_rule = rule; p_used = false } :: !pragmas)
    comments;
  (List.rev !pragmas, List.rev !bad)

(* ------------------------------------------------------------------ *)
(* Parsing                                                            *)
(* ------------------------------------------------------------------ *)

let parse ~filename src =
  let lexbuf = Lexing.from_string src in
  Location.init lexbuf filename;
  let intf = Filename.check_suffix filename ".mli" in
  let where = filename in
  try
    let ast =
      if intf then `Signature (Parse.interface lexbuf)
      else `Structure (Parse.implementation lexbuf)
    in
    (* Parse.wrap ran Lexer.init, so this is exactly this file's list. *)
    (ast, Lexer.comments ())
  with
  | Syntaxerr.Error err ->
      let loc = Syntaxerr.location_of_error err in
      Error.parse_error ~where ~line:(fst (pos_of loc)) "syntax error"
  | Lexer.Error (_, loc) ->
      Error.parse_error ~where ~line:(fst (pos_of loc)) "lexical error"

(* ------------------------------------------------------------------ *)
(* Sanctioned modules                                                 *)
(* ------------------------------------------------------------------ *)

let path_has_suffix rel suffix =
  String.length rel >= String.length suffix
  && String.equal
       (String.sub rel (String.length rel - String.length suffix)
          (String.length suffix))
       suffix

let path_has_prefix rel prefix = starts_with ~prefix rel

(* Per-rule module-level sanctions: the one place allowed to own the
   construct the rule bans everywhere else. *)
let sanctioned rule rel =
  match rule with
  | "random-global" ->
      path_has_suffix rel "stats/rng.ml" || path_has_suffix rel "stats/rng.mli"
  (* The serve_net daemon legitimately reads the clock (deadlines, select
     timeouts) and owns the socket layer; nothing it returns feeds a
     result path, which archpred-lint keeps true everywhere else. *)
  | "wall-clock" ->
      path_has_prefix rel "lib/obs/" || path_has_prefix rel "lib/serve_net/"
  | "unix-net" -> path_has_prefix rel "lib/serve_net/"
  | "unsafe-index" ->
      path_has_suffix rel "rbf/batch_kernel.ml"
      || path_has_suffix rel "core/memo.ml"
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Driver                                                             *)
(* ------------------------------------------------------------------ *)

let compare_finding a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c else String.compare a.rule b.rule

let scan_string ~scope ?rel ?mli_exists ?(warn = []) ~filename src =
  let rel = match rel with Some r -> r | None -> filename in
  let ast, comments = parse ~filename src in
  let pragmas, bad_pragmas = scan_pragmas comments in
  let raw = collect ~scope ast in
  let raw =
    match (scope, mli_exists) with
    | Lib, Some false when Filename.check_suffix filename ".ml" ->
        ("missing-mli", 1, 0, "module has no .mli interface") :: raw
    | _ -> raw
  in
  let raw = List.filter (fun (rule, _, _, _) -> not (sanctioned rule rel)) raw in
  let kept =
    List.filter
      (fun (rule, line, _, _) ->
        match
          List.find_opt
            (fun p ->
              String.equal p.p_rule rule
              && (p.p_line = line || p.p_line = line - 1))
            pragmas
        with
        | Some p ->
            p.p_used <- true;
            false
        | None -> true)
      raw
  in
  let severity_of rule = if List.mem rule warn then Warn else Error in
  let findings =
    List.map
      (fun (rule, line, col, message) ->
        { rule; severity = severity_of rule; file = filename; line; col; message })
      kept
    @ List.filter_map
        (fun p ->
          if p.p_used then None
          else
            Some
              {
                rule = "unused-pragma";
                severity = Error;
                file = filename;
                line = p.p_line;
                col = 0;
                message =
                  "pragma allows `" ^ p.p_rule
                  ^ "` but suppresses nothing on this or the next line";
              })
        pragmas
    @ List.map
        (fun (line, msg) ->
          {
            rule = "bad-pragma";
            severity = Error;
            file = filename;
            line;
            col = 0;
            message = msg;
          })
        bad_pragmas
  in
  List.sort compare_finding findings

let read_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | s -> s
  | exception Sys_error msg -> Error.io_error ~path msg

let scan_file ~scope ?warn ~root rel =
  let path = Filename.concat root rel in
  let src = read_file path in
  let mli_exists =
    if scope = Lib && Filename.check_suffix rel ".ml" then
      Some (Sys.file_exists (path ^ "i"))
    else None
  in
  scan_string ~scope ~rel ?mli_exists ?warn ~filename:rel src

let scan_tree ?warn ~root () =
  let out = ref [] in
  let rec walk_dir scope rel =
    let path = Filename.concat root rel in
    let entries = Sys.readdir path in
    Array.sort String.compare entries;
    Array.iter
      (fun name ->
        let rel' = rel ^ "/" ^ name in
        let path' = Filename.concat root rel' in
        if Sys.is_directory path' then begin
          if
            String.length name > 0
            && name.[0] <> '.'
            && name.[0] <> '_'
            && not (String.equal name "lint_fixtures")
            && not (String.equal name "analyze_fixtures")
          then walk_dir scope rel'
        end
        else if
          Filename.check_suffix name ".ml" || Filename.check_suffix name ".mli"
        then out := scan_file ~scope ?warn ~root rel' :: !out)
      entries
  in
  List.iter
    (fun (dir, scope) ->
      if Sys.file_exists (Filename.concat root dir) then walk_dir scope dir)
    [
      ("lib", Lib);
      ("bin", Bin);
      ("bench", Bench);
      ("test", Test);
      ("tools", Tools);
    ];
  List.sort compare_finding (List.concat !out)

let errors fs = List.length (List.filter (fun f -> f.severity = Error) fs)
let warnings fs = List.length (List.filter (fun f -> f.severity = Warn) fs)

let to_json f =
  Json.Obj
    [
      ("event", Json.String "finding");
      ("rule", Json.String f.rule);
      ("severity", Json.String (match f.severity with Error -> "error" | Warn -> "warn"));
      ("file", Json.String f.file);
      ("line", Json.Int f.line);
      ("col", Json.Int f.col);
      ("message", Json.String f.message);
    ]

let pp_finding ppf f =
  Format.fprintf ppf "%s:%d:%d: [%s] %s%s" f.file f.line f.col f.rule f.message
    (match f.severity with Warn -> " (warning)" | Error -> "")
