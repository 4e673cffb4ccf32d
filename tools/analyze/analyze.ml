(* The archpred-analyze engine: typed analysis over .cmt artifacts.

   It loads the Typedtrees dune already wrote under _build, so paths are
   resolved (a local [module T = Archpred_regtree] alias and a direct
   reference both canonicalise to "Regtree.Tree") and facts can flow
   across files.  Three passes share one call-graph fixpoint:

   - domain-race: which top-level mutable values / which parameters each
     function mutates, propagated through calls; then every closure that
     reaches Stats.Parallel.{map,init,map_reduce,map_fallible} is
     checked for mutation of captured or global state.
   - hot-alloc: functions named in tools/analyze/hotpaths.sexp are
     checked for allocation sites (closures, tuples, records,
     constructor applications, arrays, partial application, escaping
     ref cells, @@/|> indirection).
   - impure: effect seeds (RNG, wall clock, stdout, Unix networking)
     propagate through calls; a function whose scope bans an effect is
     flagged at the frontier where the effect enters it.

   Beside them, one file-local walk per unit checks the resolved
   identifiers, equalities, patterns and handlers that break
   determinism on their own (poly-compare, hashtbl-order, exit,
   unsafe-cast, float-lit-eq, catchall-exn, unsafe-index), and every
   lib/ unit must have an interface (missing-mli).

   Deliberate optimism, documented here once: the analysis trusts that
   a function RESULT is fresh (no escape analysis), that sequential
   HOFs apply their closure to collection elements only, and it does
   not link functor applications or first-class modules to their
   bodies.  DESIGN.md §5i spells out the consequences. *)

module Error = Archpred_obs.Error
module Json = Archpred_obs.Json

type finding = { rule : string; file : string; line : int; col : int; message : string }
type scope = Lib | Bin | Bench | Test | Tools

let scope_of_rel rel =
  let pre p = String.length rel > String.length p
              && String.equal (String.sub rel 0 (String.length p)) p in
  if pre "lib/" then Some Lib
  else if pre "bin/" then Some Bin
  else if pre "bench/" then Some Bench
  else if pre "test/" then Some Test
  else if pre "tools/" then Some Tools
  else None

let rules =
  [
    ( "domain-race",
      "top-level mutable state or captured locals mutated from a closure \
       that runs under Stats.Parallel; sanctioned per-domain state lives \
       in tools/analyze/sanctions.sexp" );
    ( "hot-alloc",
      "allocation site (closure, tuple, record, constructor, array, \
       partial application, escaping ref, @@/|> indirection) inside a \
       function declared zero-alloc in tools/analyze/hotpaths.sexp" );
    ( "impure",
      "global Random outside Stats.Rng, wall-clock reads outside lib/obs, \
       lib/serve_net and bench/, stdout printing and Unix sockets/raw-fd \
       I/O in lib/ (outside lib/serve_net), reached directly or through \
       the call graph" );
    ( "poly-compare",
      "polymorphic compare in lib/, bench/ and tools/; use Float.compare, \
       Int.compare, String.compare or a per-type comparator" );
    ( "hashtbl-order",
      "Hashtbl.iter/Hashtbl.fold in lib/, bench/ and tools/; iteration \
       order is unspecified, use Stats.Tbl sorted helpers" );
    ("exit", "exit outside bin/ and tools/; libraries must raise, not terminate");
    ( "unsafe-cast",
      "Obj.* or Marshal.* breaks abstraction and portable persistence; \
       use typed serialisation (Persist)" );
    ( "float-lit-eq",
      "(=)/(<>) against a float literal (or a float-literal pattern); use \
       Float.equal or an explicit tolerance" );
    ( "catchall-exn",
      "catch-all exception handler can swallow Fault.Injected or \
       Parallel.Deadline_exceeded; match specific exceptions or re-raise" );
    ( "unsafe-index",
      "bounds-unchecked Bigarray / Bytes / Float.Array accessors \
       (unsafe_get, unsafe_set) in lib/ outside rbf/batch_kernel and \
       core/memo, which validate their ranges once per batch" );
    ( "missing-mli",
      "every lib/ unit must have an interface (.mli) so the public \
       surface is reviewed, not accidental" );
    ("unused-pragma", "an allow pragma that suppressed nothing");
    ("bad-pragma", "malformed allow pragma (unknown rule, missing reason)");
  ]

let rule_known r = List.mem_assoc r rules

(* ------------------------------------------------------------------ *)
(* Small helpers                                                      *)
(* ------------------------------------------------------------------ *)

let strip s =
  let n = String.length s in
  let i = ref 0 and j = ref (n - 1) in
  while !i < n && (s.[!i] = ' ' || s.[!i] = '\t' || s.[!i] = '\n' || s.[!i] = '\r') do incr i done;
  while !j >= !i && (s.[!j] = ' ' || s.[!j] = '\t' || s.[!j] = '\n' || s.[!j] = '\r') do decr j done;
  if !j < !i then "" else String.sub s !i (!j - !i + 1)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

let split_on_substring ~sep s =
  let ls = String.length sep and n = String.length s in
  let rec go acc start i =
    if i + ls > n then List.rev (String.sub s start (n - start) :: acc)
    else if String.equal (String.sub s i ls) sep then
      go (String.sub s start (i - start) :: acc) (i + ls) (i + ls)
    else go acc start (i + 1)
  in
  go [] 0 0

let read_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | s -> s
  | exception Sys_error msg -> Error.io_error ~path msg

module SSet = Set.Make (String)
module SMap = Map.Make (String)
module IdentMap = Map.Make (Ident)

(* ------------------------------------------------------------------ *)
(* Registries: a minimal s-expression reader                          *)
(* ------------------------------------------------------------------ *)

type sexp = Atom of string | List of sexp list

let parse_sexps ~path src =
  let n = String.length src in
  let line = ref 1 in
  let fail what = Error.parse_error ~where:path ~line:!line what in
  let pos = ref 0 in
  let bump c = if c = '\n' then incr line in
  let rec skip_ws () =
    if !pos < n then
      match src.[!pos] with
      | ' ' | '\t' | '\r' | '\n' ->
          bump src.[!pos]; incr pos; skip_ws ()
      | ';' ->
          while !pos < n && src.[!pos] <> '\n' do incr pos done;
          skip_ws ()
      | _ -> ()
  in
  let atom () =
    let start = !pos in
    while
      !pos < n
      && (match src.[!pos] with
         | ' ' | '\t' | '\r' | '\n' | '(' | ')' | '"' | ';' -> false
         | _ -> true)
    do incr pos done;
    String.sub src start (!pos - start)
  in
  let quoted () =
    incr pos;
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match src.[!pos] with
        | '"' -> incr pos
        | '\\' when !pos + 1 < n ->
            Buffer.add_char b src.[!pos + 1];
            pos := !pos + 2;
            go ()
        | c ->
            bump c; Buffer.add_char b c; incr pos; go ()
    in
    go ();
    Buffer.contents b
  in
  let rec sexp () =
    skip_ws ();
    if !pos >= n then fail "unexpected end of input"
    else
      match src.[!pos] with
      | '(' ->
          incr pos;
          let items = ref [] in
          let rec items_go () =
            skip_ws ();
            if !pos >= n then fail "unclosed ("
            else if src.[!pos] = ')' then incr pos
            else begin
              items := sexp () :: !items;
              items_go ()
            end
          in
          items_go ();
          List (List.rev !items)
      | ')' -> fail "unexpected )"
      | '"' -> Atom (quoted ())
      | _ -> Atom (atom ())
  in
  let out = ref [] in
  let rec top () =
    skip_ws ();
    if !pos < n then begin
      out := sexp () :: !out;
      top ()
    end
  in
  top ();
  List.rev !out

type sanction_kind = Race_barrier | Race_global | Purity_barrier
type sanction = { s_kind : sanction_kind; s_name : string; s_reason : string }

let parse_sanctions ~path src =
  List.map
    (fun form ->
      match form with
      | List [ Atom kind; Atom name; Atom reason ] ->
          let s_kind =
            match kind with
            | "race-barrier" -> Race_barrier
            | "race-global" -> Race_global
            | "purity-barrier" -> Purity_barrier
            | _ ->
                Error.parse_error ~where:path ~line:0
                  ("unknown sanction kind `" ^ kind ^ "`")
          in
          if String.equal (strip reason) "" then
            Error.parse_error ~where:path ~line:0
              ("sanction for `" ^ name ^ "` needs a non-empty reason");
          { s_kind; s_name = name; s_reason = reason }
      | _ ->
          Error.parse_error ~where:path ~line:0
            "expected (race-barrier|race-global|purity-barrier Name \"reason\")")
    (parse_sexps ~path src)

let parse_hotpaths ~path src =
  List.map
    (fun form ->
      match form with
      | List [ Atom "hot-path"; Atom name ] -> name
      | _ -> Error.parse_error ~where:path ~line:0 "expected (hot-path Name)")
    (parse_sexps ~path src)

let load_sanctions ~path = parse_sanctions ~path (read_file path)
let load_hotpaths ~path = parse_hotpaths ~path (read_file path)

(* ------------------------------------------------------------------ *)
(* Canonical names                                                    *)
(* ------------------------------------------------------------------ *)

(* Compilation units arrive as "Archpred_stats__Parallel" or
   "Dune__exe__Archpred"; canonical segments are what a reader writes in
   sanctions.sexp: "Stats.Parallel", "Archpred". *)
let canon_unit modname =
  let rest =
    if starts_with ~prefix:"Dune__exe__" modname then
      String.sub modname 11 (String.length modname - 11)
    else if starts_with ~prefix:"Archpred_" modname then
      String.sub modname 9 (String.length modname - 9)
    else modname
  in
  List.map String.capitalize_ascii (split_on_substring ~sep:"__" rest)

let canon_parts parts =
  match parts with
  | [] -> []
  | h :: t ->
      if starts_with ~prefix:"Archpred_" h || starts_with ~prefix:"Dune__exe__" h
      then canon_unit h @ t
      else if String.equal h "Stdlib" && t <> [] then t
      else if starts_with ~prefix:"Stdlib__" h then
        String.capitalize_ascii (String.sub h 8 (String.length h - 8)) :: t
      else h :: t

(* Per-unit resolution context.  [toplevels] maps idents bound at the
   unit's top level (possibly inside nested plain [struct]s) to their
   canonical dotted name; [aliases] maps [module S = Long.Path] bindings
   to the aliased path so [S.f] canonicalises as [Long.Path.f]. *)
type uctx = {
  unit_parts : string list;
  file : string;
  mutable toplevels : string IdentMap.t;
  mutable aliases : Path.t IdentMap.t;
}

let rec expand_path ctx p =
  match p with
  | Path.Pident id -> (
      match IdentMap.find_opt id ctx.aliases with
      | Some tgt -> expand_path ctx tgt
      | None -> p)
  | Path.Pdot (q, s) -> Path.Pdot (expand_path ctx q, s)
  | _ -> p

let rec path_parts p =
  match p with
  | Path.Pident id -> [ Ident.name id ]
  | Path.Pdot (q, s) -> path_parts q @ [ s ]
  | Path.Papply _ -> [ "<papply>" ]
  | Path.Pextra_ty (q, _) -> path_parts q

let canon ctx p =
  let p = expand_path ctx p in
  match p with
  | Path.Pident id when IdentMap.mem id ctx.toplevels ->
      IdentMap.find id ctx.toplevels
  | _ -> String.concat "." (canon_parts (path_parts p))

(* ------------------------------------------------------------------ *)
(* Tables                                                             *)
(* ------------------------------------------------------------------ *)

(* The walker looks every call up in these tables: hash them once. *)
let table kvs =
  let t = Hashtbl.create 64 in
  List.iter (fun (k, v) -> Hashtbl.replace t k v) kvs;
  t

(* Mutator primitives: canonical name -> 0-based positional index of the
   argument that gets mutated.  Mutex/Condition are deliberately absent:
   locking is synchronization, not a data race. *)
let mutators =
  table [
    ":=", 0; "incr", 0; "decr", 0;
    "Hashtbl.add", 0; "Hashtbl.replace", 0; "Hashtbl.remove", 0;
    "Hashtbl.reset", 0; "Hashtbl.clear", 0; "Hashtbl.filter_map_inplace", 1;
    "Buffer.add_char", 0; "Buffer.add_string", 0; "Buffer.add_bytes", 0;
    "Buffer.add_substring", 0; "Buffer.add_subbytes", 0; "Buffer.add_buffer", 0;
    "Buffer.clear", 0; "Buffer.reset", 0; "Buffer.truncate", 0;
    "Atomic.set", 0; "Atomic.incr", 0; "Atomic.decr", 0;
    "Atomic.exchange", 0; "Atomic.compare_and_set", 0; "Atomic.fetch_and_add", 0;
    "Array.set", 0; "Array.unsafe_set", 0; "Array.fill", 0; "Array.blit", 2;
    "Array.sort", 1; "Array.stable_sort", 1; "Array.fast_sort", 1;
    "Bytes.set", 0; "Bytes.unsafe_set", 0; "Bytes.fill", 0; "Bytes.blit", 2;
    "Bytes.blit_string", 2;
    "Bigarray.Array1.set", 0; "Bigarray.Array1.unsafe_set", 0;
    "Bigarray.Array1.fill", 0; "Bigarray.Array1.blit", 1;
    "Bigarray.Array2.set", 0; "Bigarray.Array2.unsafe_set", 0;
    "Bigarray.Array2.fill", 0; "Bigarray.Array2.blit", 1;
    "Bigarray.Array3.set", 0; "Bigarray.Array3.unsafe_set", 0;
    "Bigarray.Genarray.set", 0; "Bigarray.Genarray.fill", 0;
    "Bigarray.Genarray.blit", 1;
    "Float.Array.set", 0; "Float.Array.unsafe_set", 0; "Float.Array.fill", 0;
    "Float.Array.blit", 2;
    "Queue.push", 1; "Queue.add", 1; "Queue.pop", 0; "Queue.take", 0;
    "Queue.clear", 0; "Queue.transfer", 0;
    "Stack.push", 1; "Stack.pop", 0; "Stack.clear", 0;
    "Domain.DLS.set", 0;
    "output_string", 0; "output_char", 0; "output", 0; "output_bytes", 0;
    "flush", 0; "Printf.fprintf", 0; "Format.fprintf", 0;
  ]

(* Accessors whose RESULT keeps pointing into their argument's
   structure: name -> positional index of the argument whose root the
   result inherits. *)
let accessors =
  table [
    "!", 0; "Hashtbl.find", 0; "Hashtbl.find_opt", 0; "Hashtbl.find_all", 0;
    "Array.get", 0; "Array.unsafe_get", 0; "Atomic.get", 0;
    "Option.get", 0; "Option.value", 0; "fst", 0; "snd", 0;
    "Lazy.force", 0; "Domain.DLS.get", 0; "Queue.peek", 0; "Queue.top", 0;
    "List.hd", 0; "List.nth", 0; "Float.Array.get", 0; "Bytes.get", 0;
  ]

(* Sequential HOFs: (function-arg position, collection-arg position).
   The closure's parameters are bound to the collection's root, so
   [List.iter (fun s -> Hashtbl.reset s) shared] registers as a
   mutation of [shared]. *)
let hofs =
  table [
    "List.iter", (0, 1); "List.map", (0, 1); "List.iteri", (0, 1);
    "List.mapi", (0, 1); "List.fold_left", (0, 2);
    "Array.iter", (0, 1); "Array.map", (0, 1); "Array.iteri", (0, 1);
    "Array.mapi", (0, 1); "Array.fold_left", (0, 2);
    "Hashtbl.iter", (0, 1); "Option.iter", (0, 1); "Option.map", (0, 1);
  ]

(* Arguments of a raise-family call are cold: allocation there is the
   price of dying, not of the hot path. *)
let raise_family =
  [
    "raise"; "raise_notrace"; "invalid_arg"; "failwith";
    "Printexc.raise_with_backtrace";
    "Obs.Error.invalid_input"; "Obs.Error.invalid_env"; "Obs.Error.io_error";
    "Obs.Error.parse_error"; "Obs.Error.infeasible";
  ]

let entry_names =
  [
    "Stats.Parallel.map"; "Stats.Parallel.init";
    "Stats.Parallel.map_reduce"; "Stats.Parallel.map_fallible";
  ]

(* Effect seeds, as bitmasks. *)
let eff_rng = 1
let eff_wall = 2
let eff_stdout = 4
let eff_net = 8

let stdout_printers =
  [ "print_string"; "print_endline"; "print_newline"; "print_int";
    "print_float"; "print_char"; "print_bytes" ]

let net_ops =
  [ "socket"; "socketpair"; "bind"; "listen"; "accept"; "connect"; "select";
    "recv"; "recvfrom"; "send"; "sendto"; "send_substring"; "shutdown";
    "setsockopt"; "getsockopt"; "getsockname"; "getpeername"; "getaddrinfo";
    "gethostbyname"; "inet_addr_of_string"; "open_connection";
    "establish_server"; "set_nonblock"; "clear_nonblock"; "read"; "write";
    "single_write"; "write_substring" ]

let effect_of_name name =
  match String.split_on_char '.' name with
  | "Random" :: _ -> eff_rng
  | [ "Unix"; ("gettimeofday" | "time" | "times") ] | [ "Sys"; "time" ] ->
      eff_wall
  | [ p ] when List.mem p stdout_printers -> eff_stdout
  | [ "Printf"; "printf" ]
  | [ "Format"; ("printf" | "print_string" | "print_newline" | "print_float") ]
    -> eff_stdout
  | [ "Unix"; op ] when List.mem op net_ops -> eff_net
  | _ -> 0

let effect_desc mask =
  if mask = eff_rng then "global RNG"
  else if mask = eff_wall then "wall-clock read"
  else if mask = eff_stdout then "stdout write"
  else "Unix network / raw-fd I/O"

(* Where is each ban in force?  Its scopes, minus the module or
   directory sanctioned to own the construct; [file] is the
   repo-relative source. *)
let banned_effect ~scope ~file mask =
  let under p = starts_with ~prefix:p file in
  if mask = eff_rng then not (String.equal file "lib/stats/rng.ml")
  else if mask = eff_wall then
    (match scope with Lib | Bin | Test | Tools -> true | Bench -> false)
    && not (under "lib/obs/" || under "lib/serve_net/")
  else if mask = eff_stdout then scope = Lib
  else scope = Lib && not (under "lib/serve_net/")

let banned_rule ~scope ~file rule =
  match rule with
  | "poly-compare" | "hashtbl-order" -> (
      match scope with Lib | Bench | Tools -> true | Bin | Test -> false)
  | "exit" -> (match scope with Lib | Bench | Test -> true | Bin | Tools -> false)
  | "unsafe-index" ->
      scope = Lib
      && not (List.mem file [ "lib/rbf/batch_kernel.ml"; "lib/core/memo.ml" ])
  | "missing-mli" -> scope = Lib
  | _ -> true

(* ------------------------------------------------------------------ *)
(* Facts                                                              *)
(* ------------------------------------------------------------------ *)

(* Where a value ultimately comes from.  [Param k] is "this function's
   parameter k" ("#0" positional / "~lbl" / "?lbl"); [GlobalR n] a
   top-level value (ours or another unit's); [SharedR d] a local that a
   parallel closure captured from its spawning scope. *)
type froot = Fresh | Param of string | GlobalR of string | SharedR of string

type call = {
  callee : string;
  cargs : (string * froot) list;  (* non-Fresh argument roots, keyed *)
  cloc : Location.t;
}

type fact = {
  fname : string;
  ffile : string;
  mutable mut_params : SSet.t;
  mutable mut_globals : SSet.t;
  mutable effects : int;
  mutable direct_mut_params : (string * Location.t) list;
  mutable direct_mut_globals : (string * Location.t) list;
  mutable effect_sites : (int * string * Location.t) list;
  mutable calls : call list;
}

open Typedtree

type cbs = {
  on_mut : Location.t -> froot -> string -> unit;
  on_call : Location.t -> string -> (string * froot) list -> unit;
  on_effect : Location.t -> int -> string -> unit;
  on_entry :
    string (* enclosing fn *) -> Location.t -> string ->
    (Asttypes.arg_label * expression) list -> froot IdentMap.t -> unit;
  on_alloc : (Location.t -> string -> unit) option;
  (* ref-cell escape tracking for the alloc pass: [ref_def id loc] on
     [let r = ref e]; [ref_use id ~allowed] on every later use. *)
  ref_def : (Ident.t -> Location.t -> unit) option;
  ref_use : (Ident.t -> allowed:bool -> unit) option;
  encl : string;  (* canonical name of the enclosing top-level function *)
}

let key_of_label n = function
  | Asttypes.Nolabel -> "#" ^ string_of_int n
  | Asttypes.Labelled l -> "~" ^ l
  | Asttypes.Optional l -> "?" ^ l

let bind_ids env ids root =
  List.fold_left (fun acc id -> IdentMap.add id root acc) env ids

let bind_pat env pat root = bind_ids env (pat_bound_idents pat) root

let head_ident f =
  match f.exp_desc with Texp_ident (p, _, _) -> Some p | _ -> None

let nth_positional args i =
  let rec go k = function
    | [] -> None
    | (Asttypes.Nolabel, a) :: rest -> if k = i then Some a else go (k + 1) rest
    | _ :: rest -> go k rest
  in
  go 0 args

let is_arrow ty =
  match Types.get_desc ty with Types.Tarrow _ -> true | _ -> false

let root_of_path ctx env p =
  match p with
  | Path.Pident id -> (
      match IdentMap.find_opt id env with
      | Some r -> r
      | None -> (
          match IdentMap.find_opt id ctx.toplevels with
          | Some name -> GlobalR name
          | None -> (
              match IdentMap.find_opt id ctx.aliases with
              | Some _ -> GlobalR (canon ctx p)
              | None -> Fresh)))
  | Path.Papply _ -> Fresh
  | _ -> GlobalR (canon ctx p)

(* [root_of] never reports anything; it only answers "where does this
   expression's value point".  Join rule for branching forms: first
   non-Fresh branch root wins (optimistic toward tracking, which is the
   conservative direction for the race pass). *)
let rec root_of ctx env e =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> root_of_path ctx env p
  | Texp_field (e1, _, _) -> root_of ctx env e1
  | Texp_construct (_, _, [ a ]) -> root_of ctx env a
  | Texp_sequence (_, b) -> root_of ctx env b
  | Texp_ifthenelse (_, b, c) ->
      join_roots (root_of ctx env b)
        (match c with Some c -> root_of ctx env c | None -> Fresh)
  | Texp_let (_, vbs, body) ->
      let env' =
        List.fold_left
          (fun acc vb -> bind_pat acc vb.vb_pat (root_of ctx env vb.vb_expr))
          env vbs
      in
      root_of ctx env' body
  | Texp_match (scrut, cases, _) ->
      let r = root_of ctx env scrut in
      List.fold_left
        (fun acc c ->
          join_roots acc (root_of ctx (bind_pat env c.c_lhs r) c.c_rhs))
        Fresh cases
  | Texp_apply (f, args) -> (
      match head_ident f with
      | Some p -> (
          let name = canon ctx p in
          let args_e =
            List.filter_map (fun (l, a) -> Option.map (fun a -> (l, a)) a) args
          in
          match Hashtbl.find_opt accessors name with
          | Some i -> (
              match nth_positional args_e i with
              | Some a -> root_of ctx env a
              | None -> Fresh)
          | None -> Fresh)
      | None -> Fresh)
  | _ -> Fresh

and join_roots a b = match a with Fresh -> b | _ -> a

let keyed_roots ctx env args_e =
  let _, acc =
    List.fold_left
      (fun (n, acc) (lbl, a) ->
        let n' = match lbl with Asttypes.Nolabel -> n + 1 | _ -> n in
        let key = key_of_label n lbl in
        match root_of ctx env a with
        | Fresh -> (n', acc)
        | r -> (n', (key, r) :: acc))
      (0, []) args_e
  in
  List.rev acc

(* ------------------------------------------------------------------ *)
(* The walker                                                         *)
(* ------------------------------------------------------------------ *)

let rec walk ctx cbs env e =
  match e.exp_desc with
  | Texp_ident (p, _, _) ->
      (match p with
      | Path.Pident id ->
          (match cbs.ref_use with Some f -> f id ~allowed:false | None -> ())
      | _ -> ());
      let name = canon ctx p in
      let mask = effect_of_name name in
      if mask <> 0 then cbs.on_effect e.exp_loc mask name
  | Texp_let (rf, vbs, body) ->
      let env' =
        List.fold_left
          (fun acc vb ->
            (match (cbs.ref_def, vb.vb_pat.pat_desc, ref_rhs ctx vb.vb_expr) with
            | Some f, Tpat_var (id, _), true -> f id vb.vb_expr.exp_loc
            | _ -> ());
            bind_pat acc vb.vb_pat (root_of ctx env vb.vb_expr))
          env vbs
      in
      let benv = match rf with Asttypes.Recursive -> env' | _ -> env in
      List.iter (fun vb -> walk ctx cbs benv vb.vb_expr) vbs;
      walk ctx cbs env' body
  | Texp_function { param; cases; _ } ->
      (match cbs.on_alloc with
      | Some f -> f e.exp_loc "closure allocation"
      | None -> ());
      walk_cases ctx cbs env param cases
  | Texp_apply (f, args) -> walk_apply ctx cbs env e f args
  | Texp_match (scrut, cases, _) ->
      walk ctx cbs env scrut;
      let r = root_of ctx env scrut in
      List.iter
        (fun c ->
          let env' = bind_pat env c.c_lhs r in
          Option.iter (walk ctx cbs env') c.c_guard;
          walk ctx cbs env' c.c_rhs)
        cases
  | Texp_try (b, cases) ->
      walk ctx cbs env b;
      List.iter
        (fun c ->
          let env' = bind_pat env c.c_lhs Fresh in
          Option.iter (walk ctx cbs env') c.c_guard;
          walk ctx cbs env' c.c_rhs)
        cases
  | Texp_setfield (e1, _, _, v) ->
      cbs.on_mut e.exp_loc (root_of ctx env e1) "mutable-field assignment";
      walk ctx cbs env e1;
      walk ctx cbs env v
  | Texp_tuple es ->
      (match cbs.on_alloc with
      | Some f -> f e.exp_loc "tuple allocation"
      | None -> ());
      List.iter (walk ctx cbs env) es
  | Texp_construct (_, cd, es) ->
      if es <> [] then (
        match cbs.on_alloc with
        | Some f ->
            f e.exp_loc
              ("constructor allocation (" ^ cd.Types.cstr_name ^ ")")
        | None -> ());
      List.iter (walk ctx cbs env) es
  | Texp_variant (_, eo) ->
      (match (eo, cbs.on_alloc) with
      | Some _, Some f -> f e.exp_loc "variant allocation"
      | _ -> ());
      Option.iter (walk ctx cbs env) eo
  | Texp_record { fields; extended_expression; _ } ->
      (match cbs.on_alloc with
      | Some f -> f e.exp_loc "record allocation"
      | None -> ());
      Array.iter
        (fun (_, def) ->
          match def with
          | Overridden (_, ex) -> walk ctx cbs env ex
          | Kept _ -> ())
        fields;
      Option.iter (walk ctx cbs env) extended_expression
  | Texp_array es ->
      (match cbs.on_alloc with
      | Some f -> f e.exp_loc "array allocation"
      | None -> ());
      List.iter (walk ctx cbs env) es
  | Texp_field (e1, _, _) -> walk ctx cbs env e1
  | Texp_ifthenelse (a, b, c) ->
      walk ctx cbs env a;
      walk ctx cbs env b;
      Option.iter (walk ctx cbs env) c
  | Texp_sequence (a, b) ->
      walk ctx cbs env a;
      walk ctx cbs env b
  | Texp_while (a, b) ->
      walk ctx cbs env a;
      walk ctx cbs env b
  | Texp_for (id, _, lo, hi, _, body) ->
      walk ctx cbs env lo;
      walk ctx cbs env hi;
      walk ctx cbs (IdentMap.add id Fresh env) body
  | Texp_assert (a, _) -> walk ctx cbs env a
  | Texp_lazy a ->
      (match cbs.on_alloc with
      | Some f -> f e.exp_loc "lazy allocation"
      | None -> ());
      walk ctx cbs env a
  | _ ->
      (* Anything else (letmodule, letop, object, pack, ...): visit every
         sub-expression with the current environment. *)
      let it =
        {
          Tast_iterator.default_iterator with
          expr = (fun _ sub -> walk ctx cbs env sub);
        }
      in
      Tast_iterator.default_iterator.expr it e

and walk_cases ctx cbs env param cases =
  List.iter
    (fun c ->
      let env' = IdentMap.add param Fresh (bind_pat env c.c_lhs Fresh) in
      Option.iter (walk ctx cbs env') c.c_guard;
      walk ctx cbs env' c.c_rhs)
    cases

and ref_rhs ctx e =
  match e.exp_desc with
  | Texp_apply (f, [ (_, Some _) ]) -> (
      match head_ident f with
      | Some p -> String.equal (canon ctx p) "ref"
      | None -> false)
  | _ -> false

and walk_apply ctx cbs env e f args =
  let args_e =
    List.filter_map (fun (l, a) -> Option.map (fun a -> (l, a)) a) args
  in
  let walk_args ?(skip = []) () =
    List.iter
      (fun (_, a) -> if not (List.memq a skip) then walk ctx cbs env a)
      args_e
  in
  match head_ident f with
  | None ->
      walk ctx cbs env f;
      walk_args ();
      alloc_if_partial cbs e
  | Some p -> (
      let name = canon ctx p in
      let mask = effect_of_name name in
      if mask <> 0 then cbs.on_effect e.exp_loc mask name;
      if List.mem name raise_family then
        (* cold path: dying is allowed to allocate, and a raise helper's
           arguments never feed the data-race surface *)
        ()
      else begin
        (match name with
        | "!" | ":=" | "incr" | "decr" -> (
            (* track the ref cell without letting the generic ident case
               count these uses as escapes *)
            let skip = ref [] in
            (match nth_positional args_e 0 with
            | Some a -> (
                (match a.exp_desc with
                | Texp_ident (Path.Pident id, _, _) -> (
                    skip := [ a ];
                    match cbs.ref_use with
                    | Some fu -> fu id ~allowed:true
                    | None -> ())
                | _ -> ());
                if not (String.equal name "!") then
                  cbs.on_mut e.exp_loc (root_of ctx env a) (name ^ " on ref"))
            | None -> ());
            walk_args ~skip:!skip ())
        | _ -> (
            match Hashtbl.find_opt mutators name with
            | Some idx ->
                (match nth_positional args_e idx with
                | Some a ->
                    cbs.on_mut e.exp_loc (root_of ctx env a) (name ^ " on it")
                | None -> ());
                walk_args ()
            | None ->
                if Hashtbl.mem accessors name then walk_args ()
                else if List.mem name entry_names then begin
                  cbs.on_entry cbs.encl e.exp_loc name args_e env;
                  cbs.on_call e.exp_loc name (keyed_roots ctx env args_e);
                  walk_args ()
                end
                else if String.equal name "@@" || String.equal name "|>" then begin
                  (match cbs.on_alloc with
                  | Some fa -> fa e.exp_loc ("operator indirection (" ^ name ^ ")")
                  | None -> ());
                  (* f @@ x / x |> f: surface the underlying call so facts
                     still flow *)
                  (match args_e with
                  | [ (_, a1); (_, a2) ] -> (
                      let fn, arg =
                        if String.equal name "@@" then (a1, a2) else (a2, a1)
                      in
                      match head_ident fn with
                      | Some fp ->
                          cbs.on_call e.exp_loc (canon ctx fp)
                            (match root_of ctx env arg with
                            | Fresh -> []
                            | r -> [ ("#0", r) ])
                      | None -> ())
                  | _ -> ());
                  walk_args ()
                end
                else begin
                  let hof_skip = ref [] in
                  (match Hashtbl.find_opt hofs name with
                  | Some (fpos, cpos) -> (
                      let coll_root =
                        match nth_positional args_e cpos with
                        | Some c -> root_of ctx env c
                        | None -> Fresh
                      in
                      match nth_positional args_e fpos with
                      | Some ({ exp_desc = Texp_function _; _ } as fl) ->
                          (* walk the body once, with the element params
                             inheriting the collection root; the generic
                             argument sweep below skips it *)
                          hof_skip := [ fl ];
                          walk_hof_literal ctx cbs env fl coll_root
                      | Some fa -> (
                          match (head_ident fa, coll_root) with
                          | Some fp, (GlobalR _ | SharedR _ | Param _) ->
                              cbs.on_call e.exp_loc (canon ctx fp)
                                [ ("#0", coll_root) ]
                          | _ -> ())
                      | None -> ())
                  | None -> ());
                  cbs.on_call e.exp_loc name (keyed_roots ctx env args_e);
                  walk_args ~skip:!hof_skip ()
                end));
        alloc_if_partial cbs e
      end)

and walk_hof_literal ctx cbs env fl coll_root =
  match fl.exp_desc with
  | Texp_function { param; cases; _ } ->
      (match cbs.on_alloc with
      | Some f -> f fl.exp_loc "closure allocation"
      | None -> ());
      List.iter
        (fun c ->
          let env' =
            IdentMap.add param coll_root (bind_pat env c.c_lhs coll_root)
          in
          Option.iter (walk ctx cbs env') c.c_guard;
          walk ctx cbs env' c.c_rhs)
        cases
  | _ -> walk ctx cbs env fl

and alloc_if_partial cbs e =
  match cbs.on_alloc with
  | Some f -> if is_arrow e.exp_type then f e.exp_loc "partial application"
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Findings, pragmas                                                  *)
(* ------------------------------------------------------------------ *)

let mkf ~rule ~file (loc : Location.t) message =
  let p = loc.Location.loc_start in
  {
    rule;
    file;
    line = p.Lexing.pos_lnum;
    col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
    message;
  }

(* ------------------------------------------------------------------ *)
(* File-local checks                                                  *)
(* ------------------------------------------------------------------ *)

(* The canonical parts of a path rooted outside the unit; [None] for a
   local or the unit's own binding, which can never be the Stdlib
   function a rule bans. *)
let global_parts ctx p =
  let p = expand_path ctx p in
  let rec rooted_globally = function
    | Path.Pident id -> Ident.global id
    | Path.Pdot (q, _) | Path.Pextra_ty (q, _) -> rooted_globally q
    | Path.Papply _ -> false
  in
  if rooted_globally p then Some (canon_parts (path_parts p)) else None

let head_parts ctx f =
  match head_ident f with Some p -> global_parts ctx p | None -> None

(* The rule a resolved identifier breaks, before scoping. *)
let ident_rule parts =
  let q () = "`" ^ String.concat "." parts ^ "`" in
  match parts with
  | [ "compare" ] | [ "Pervasives"; "compare" ] ->
      Some
        ( "poly-compare",
          "polymorphic " ^ q () ^ "; floats compare bitwise-unordered under it \
                                -- use Float.compare / Int.compare / String.compare" )
  | [ "Hashtbl"; ("iter" | "fold") ] ->
      Some
        ( "hashtbl-order",
          q () ^ " iterates in unspecified order; use Stats.Tbl.sorted_bindings \
               / iter_sorted / fold_sorted" )
  | [ "exit" ] -> Some ("exit", "`exit` terminates the process from non-bin code")
  | "Obj" :: _ -> Some ("unsafe-cast", q () ^ " defeats typing")
  | "Marshal" :: _ ->
      Some ("unsafe-cast", q () ^ " is unversioned binary persistence; use Persist")
  | parts -> (
      match List.rev parts with
      | last :: mods
        when starts_with ~prefix:"unsafe_" last
             && (List.mem "Bigarray" mods || List.mem "Bytes" mods
                || match mods with "Array" :: "Float" :: _ -> true | _ -> false)
        ->
          Some
            ( "unsafe-index",
              q () ^ " skips bounds checks; only the sanctioned batch kernels \
                   (rbf/batch_kernel, core/memo) may do that" )
      | _ -> None)

let rec is_float_lit ctx e =
  match e.exp_desc with
  | Texp_constant (Asttypes.Const_float _) -> true
  | Texp_apply (f, [ (_, Some a) ]) -> (
      match head_parts ctx f with
      | Some [ ("~-." | "~-" | "~+." | "~+") ] -> is_float_lit ctx a
      | _ -> false)
  | _ -> false

(* A handler pattern that catches every exception: [_], a variable, or
   an alias/or-pattern reducing to one.  Returns the bound ident if
   any. *)
let rec catchall : value general_pattern -> Ident.t option option =
 fun p ->
  match p.pat_desc with
  | Tpat_any -> Some None
  | Tpat_var (id, _) -> Some (Some id)
  | Tpat_alias (inner, id, _) -> Option.map (fun _ -> Some id) (catchall inner)
  | Tpat_or (a, b, _) -> (
      match catchall a with Some r -> Some r | None -> catchall b)
  | _ -> None

(* The same for [match ... with exception p] cases. *)
let rec exception_catchall : computation general_pattern -> Ident.t option option =
 fun p ->
  match p.pat_desc with
  | Tpat_exception inner -> catchall inner
  | Tpat_or (a, b, _) -> (
      match exception_catchall a with
      | Some r -> Some r
      | None -> exception_catchall b)
  | _ -> None

(* Does [body] hand [id] back to raise / raise_notrace /
   Printexc.raise_with_backtrace?  A handler that logs and re-raises
   swallows nothing. *)
let reraises ctx id body =
  let found = ref false in
  let expr sub e =
    (match e.exp_desc with
    | Texp_apply (f, args) -> (
        match head_parts ctx f with
        | Some ([ ("raise" | "raise_notrace") ] | [ "Printexc"; "raise_with_backtrace" ])
          ->
            if
              List.exists
                (function
                  | _, Some { exp_desc = Texp_ident (Path.Pident v, _, _); _ } ->
                      Ident.same v id
                  | _ -> false)
                args
            then found := true
        | _ -> ())
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.expr it body;
  !found

(* One walk over the whole unit, including functor and class bodies. *)
let local_findings ctx ~scope ~rel str =
  let out = ref [] in
  let add rule loc msg =
    if banned_rule ~scope ~file:rel rule then
      out := mkf ~rule ~file:ctx.file loc msg :: !out
  in
  let handler hit c =
    match (hit, c.c_guard) with
    | Some bound, None ->
        let swallows =
          match bound with None -> true | Some id -> not (reraises ctx id c.c_rhs)
        in
        if swallows then
          add "catchall-exn" c.c_lhs.pat_loc
            "catch-all exception handler (would swallow Fault.Injected / \
             Parallel.Deadline_exceeded); match specific exceptions or re-raise"
    | _ -> ()
  in
  let expr sub e =
    (match e.exp_desc with
    | Texp_ident (p, _, _) -> (
        match Option.bind (global_parts ctx p) ident_rule with
        | Some (rule, msg) -> add rule e.exp_loc msg
        | None -> ())
    | Texp_apply (f, args) -> (
        match head_parts ctx f with
        | Some [ ("=" | "<>" | "==" | "!=") ]
          when List.exists
                 (function _, Some a -> is_float_lit ctx a | _ -> false)
                 args ->
            add "float-lit-eq" e.exp_loc
              "equality against a float literal; use Float.equal or a tolerance"
        | _ -> ())
    | Texp_try (_, cases) -> List.iter (fun c -> handler (catchall c.c_lhs) c) cases
    | Texp_match (_, cases, _) ->
        List.iter (fun c -> handler (exception_catchall c.c_lhs) c) cases
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let pat : type k. Tast_iterator.iterator -> k general_pattern -> unit =
   fun sub p ->
    (match p.pat_desc with
    | Tpat_constant (Asttypes.Const_float _) ->
        add "float-lit-eq" p.pat_loc
          "float literal in a pattern matches by exact equality"
    | _ -> ());
    Tast_iterator.default_iterator.pat sub p
  in
  let it = { Tast_iterator.default_iterator with expr; pat } in
  it.structure it str;
  !out

type pragma = {
  p_file : string;
  p_line : int;
  p_rule : string;
  mutable p_used : bool;
}

let pragma_key = "archpred-analyze:"

(* Comments come straight out of the .cmt ([cmt_comments]), so pragmas
   need no re-lexing of the source.  A pragma must START the comment;
   prose that merely quotes the grammar is inert. *)
let scan_pragmas ~file comments =
  let pragmas = ref [] and bad = ref [] in
  List.iter
    (fun (text, (cloc : Location.t)) ->
      let t = strip text in
      if starts_with ~prefix:pragma_key t then begin
        let rest =
          strip (String.sub t (String.length pragma_key)
                   (String.length t - String.length pragma_key))
        in
        let bad_pragma what = bad := mkf ~rule:"bad-pragma" ~file cloc what :: !bad in
        if starts_with ~prefix:"allow " rest then begin
          let body = strip (String.sub rest 6 (String.length rest - 6)) in
          match split_on_substring ~sep:"--" body with
          | [ _ ] | [] -> bad_pragma "pragma needs `-- reason`"
          | r :: tail ->
              let rule = strip r in
              let reason = strip (String.concat "--" tail) in
              if String.contains rule ' ' then
                bad_pragma "pragma allows exactly one rule"
              else if not (rule_known rule) then
                bad_pragma ("unknown rule `" ^ rule ^ "` in pragma")
              else if String.equal reason "" then
                bad_pragma "pragma needs a non-empty reason"
              else
                pragmas :=
                  {
                    p_file = file;
                    p_line = cloc.Location.loc_start.Lexing.pos_lnum;
                    p_rule = rule;
                    p_used = false;
                  }
                  :: !pragmas
        end
        else bad_pragma "expected `allow <rule> -- reason`"
      end)
    comments;
  (!pragmas, !bad)

(* ------------------------------------------------------------------ *)
(* Unit loading and fact collection                                   *)
(* ------------------------------------------------------------------ *)

type entry_site = {
  e_ctx : uctx;
  e_encl : string;
  e_name : string;
  e_args : (Asttypes.arg_label * expression) list;
  e_env : froot IdentMap.t;
}

type state = {
  mutable facts : fact SMap.t;
  mutable entries : entry_site list;
  mutable pragmas : pragma list;
  mutable pre_findings : finding list;  (* alloc, file-local, bad-pragma *)
  mutable known : SSet.t;  (* every top-level name, for the registries *)
  hot : SSet.t;
}

let get_fact st name file =
  match SMap.find_opt name st.facts with
  | Some f -> f
  | None ->
      let f =
        {
          fname = name;
          ffile = file;
          mut_params = SSet.empty;
          mut_globals = SSet.empty;
          effects = 0;
          direct_mut_params = [];
          direct_mut_globals = [];
          effect_sites = [];
          calls = [];
        }
      in
      st.facts <- SMap.add name f st.facts;
      f

let fact_cbs st ctx fact =
  {
    on_mut =
      (fun loc root _desc ->
        match root with
        | Param k -> fact.direct_mut_params <- (k, loc) :: fact.direct_mut_params
        | GlobalR g ->
            fact.direct_mut_globals <- (g, loc) :: fact.direct_mut_globals
        | _ -> ());
    on_call =
      (fun loc callee cargs ->
        fact.calls <- { callee; cargs; cloc = loc } :: fact.calls);
    on_effect =
      (fun loc mask name ->
        fact.effect_sites <- (mask, name, loc) :: fact.effect_sites);
    on_entry =
      (fun encl _loc name args env ->
        st.entries <-
          { e_ctx = ctx; e_encl = encl; e_name = name; e_args = args; e_env = env }
          :: st.entries);
    on_alloc = None;
    ref_def = None;
    ref_use = None;
    encl = fact.fname;
  }

(* Peel the outer currying chain into parameter keys; everything below
   is the function's body. *)
let rec peel ctx cbs env n e =
  match e.exp_desc with
  | Texp_function { arg_label; param; cases = [ c ]; _ } when c.c_guard = None ->
      let key = key_of_label n arg_label in
      let n' = match arg_label with Asttypes.Nolabel -> n + 1 | _ -> n in
      let env' = IdentMap.add param (Param key) (bind_pat env c.c_lhs (Param key)) in
      peel ctx cbs env' n' c.c_rhs
  | Texp_function { arg_label; param; cases; _ } ->
      let key = key_of_label n arg_label in
      List.iter
        (fun c ->
          let env' =
            IdentMap.add param (Param key) (bind_pat env c.c_lhs (Param key))
          in
          Option.iter (walk ctx cbs env') c.c_guard;
          walk ctx cbs env' c.c_rhs)
        cases
  | Texp_let (rf, vbs, body) ->
      (* an optional parameter with a default compiles to
         [fun ?p -> let p = match p with ... in fun next -> ...]:
         keep peeling through the default-binding let *)
      let env' =
        List.fold_left
          (fun acc vb ->
            (match (cbs.ref_def, vb.vb_pat.pat_desc, ref_rhs ctx vb.vb_expr) with
            | Some f, Tpat_var (id, _), true -> f id vb.vb_expr.exp_loc
            | _ -> ());
            bind_pat acc vb.vb_pat (root_of ctx env vb.vb_expr))
          env vbs
      in
      let benv = match rf with Asttypes.Recursive -> env' | _ -> env in
      List.iter (fun vb -> walk ctx cbs benv vb.vb_expr) vbs;
      peel ctx cbs env' n body
  | _ -> walk ctx cbs env e

let nop_cbs encl =
  {
    on_mut = (fun _ _ _ -> ());
    on_call = (fun _ _ _ -> ());
    on_effect = (fun _ _ _ -> ());
    on_entry = (fun _ _ _ _ _ -> ());
    on_alloc = None;
    ref_def = None;
    ref_use = None;
    encl;
  }

(* Zero-alloc check of one manifest function: a second, local walk with
   the allocation callbacks armed.  Refs used only through !/:=/incr/decr
   unbox (Simplif.eliminate_ref); escaping ones allocate. *)
let alloc_walk st ctx fname body =
  let refs = ref IdentMap.empty in
  let ref_allocs = ref [] in
  let add loc desc =
    st.pre_findings <-
      mkf ~rule:"hot-alloc" ~file:ctx.file loc
        (desc ^ " in zero-alloc hot path `" ^ fname ^ "`")
      :: st.pre_findings
  in
  let cbs =
    {
      (nop_cbs fname) with
      on_alloc = Some add;
      on_call =
        (fun loc callee _ ->
          if String.equal callee "ref" then ref_allocs := loc :: !ref_allocs);
      ref_def =
        (fun id loc -> refs := IdentMap.add id (loc, ref false) !refs)
        |> Option.some;
      ref_use =
        (fun id ~allowed ->
          if not allowed then
            match IdentMap.find_opt id !refs with
            | Some (_, esc) -> esc := true
            | None -> ())
        |> Option.some;
    }
  in
  peel ctx cbs IdentMap.empty 0 body;
  let unboxed_ref_locs =
    IdentMap.fold
      (fun _ (loc, esc) acc -> if !esc then acc else loc :: acc)
      !refs []
  in
  List.iter
    (fun loc ->
      if not (List.mem loc unboxed_ref_locs) then
        add loc "ref allocation (cell escapes !/:=/incr/decr use)")
    !ref_allocs

let rec unwrap_mod me =
  match me.mod_desc with
  | Tmod_constraint (me', _, _, _) -> unwrap_mod me'
  | d -> d

(* The structure a module binding defines, looking through functor
   parameters: a functor body is walked like a plain submodule. *)
let rec struct_of me =
  match unwrap_mod me with
  | Tmod_structure s -> Some s
  | Tmod_functor (_, body) -> struct_of body
  | _ -> None

(* Pass 1 over a unit: register top-level names and module aliases. *)
let rec register_items st ctx prefix items =
  List.iter
    (fun item ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              List.iter
                (fun id ->
                  let name = String.concat "." (prefix @ [ Ident.name id ]) in
                  st.known <- SSet.add name st.known;
                  ctx.toplevels <- IdentMap.add id name ctx.toplevels)
                (pat_bound_idents vb.vb_pat))
            vbs
      | Tstr_module mb -> register_mb st ctx prefix mb
      | Tstr_recmodule mbs -> List.iter (register_mb st ctx prefix) mbs
      | _ -> ())
    items

and register_mb st ctx prefix mb =
  match (mb.mb_id, unwrap_mod mb.mb_expr) with
  | Some id, Tmod_ident (p, _) -> ctx.aliases <- IdentMap.add id p ctx.aliases
  | Some id, _ ->
      Option.iter
        (fun s -> register_items st ctx (prefix @ [ Ident.name id ]) s.str_items)
        (struct_of mb.mb_expr)
  | None, _ -> ()

(* Pass 2: collect facts for every top-level function; walk other
   top-level bindings under a per-unit `<init>` pseudo-function so
   effects and entry sites in `let () = ...` bodies are still seen. *)
let rec facts_items st ctx prefix items =
  let init_fact () =
    get_fact st (String.concat "." (prefix @ [ "<init>" ])) ctx.file
  in
  List.iter
    (fun item ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              match (vb.vb_pat.pat_desc, vb.vb_expr.exp_desc) with
              | Tpat_var (id, _), Texp_function _ ->
                  let name = IdentMap.find id ctx.toplevels in
                  let fact = get_fact st name ctx.file in
                  peel ctx (fact_cbs st ctx fact) IdentMap.empty 0 vb.vb_expr;
                  if SSet.mem name st.hot then
                    alloc_walk st ctx name vb.vb_expr
              | _ ->
                  let fact = init_fact () in
                  walk ctx (fact_cbs st ctx fact) IdentMap.empty vb.vb_expr)
            vbs
      | Tstr_eval (e, _) ->
          let fact = init_fact () in
          walk ctx (fact_cbs st ctx fact) IdentMap.empty e
      | Tstr_module mb -> facts_mb st ctx prefix mb
      | Tstr_recmodule mbs -> List.iter (facts_mb st ctx prefix) mbs
      | _ -> ())
    items

and facts_mb st ctx prefix mb =
  match (mb.mb_id, struct_of mb.mb_expr) with
  | Some id, Some s -> facts_items st ctx (prefix @ [ Ident.name id ]) s.str_items
  | _ -> ()

let load_unit st ~root ~rel_of cmt_path =
  let cmt =
    (* unreadable / other-compiler-version artifacts are skipped, not
       fatal: a stale .cmt must not wedge the whole sweep *)
    match Cmt_format.read_cmt cmt_path with
    | c -> Some c
    | exception Sys_error _ -> None
    | exception End_of_file -> None
    | exception Failure _ -> None
    | exception Cmi_format.Error _ -> None
  in
  match cmt with
  | None -> ()
  | Some cmt -> (
      match (cmt.Cmt_format.cmt_annots, cmt.Cmt_format.cmt_sourcefile) with
      | Cmt_format.Implementation str, Some file
        when Sys.file_exists (Filename.concat root file) ->
          let ctx =
            {
              unit_parts = canon_unit cmt.Cmt_format.cmt_modname;
              file;
              toplevels = IdentMap.empty;
              aliases = IdentMap.empty;
            }
          in
          register_items st ctx ctx.unit_parts str.str_items;
          facts_items st ctx ctx.unit_parts str.str_items;
          let pragmas, bad = scan_pragmas ~file cmt.Cmt_format.cmt_comments in
          st.pragmas <- pragmas @ st.pragmas;
          st.pre_findings <- bad @ st.pre_findings;
          let rel = rel_of file in
          Option.iter
            (fun scope ->
              st.pre_findings <- local_findings ctx ~scope ~rel str @ st.pre_findings;
              if
                Filename.check_suffix file ".ml"
                && banned_rule ~scope ~file:rel "missing-mli"
                && not (Sys.file_exists (Filename.remove_extension cmt_path ^ ".cmti"))
              then
                st.pre_findings <-
                  { rule = "missing-mli"; file; line = 1; col = 0;
                    message = "module has no .mli interface" }
                  :: st.pre_findings)
            (scope_of_rel rel)
      | _ -> ())

(* ------------------------------------------------------------------ *)
(* Fixpoint                                                           *)
(* ------------------------------------------------------------------ *)

let fixpoint st ~race_barriers ~purity_barriers =
  SMap.iter
    (fun _ f ->
      f.mut_params <- SSet.of_list (List.map fst f.direct_mut_params);
      f.mut_globals <- SSet.of_list (List.map fst f.direct_mut_globals);
      f.effects <-
        List.fold_left (fun acc (m, _, _) -> acc lor m) 0 f.effect_sites)
    st.facts;
  let changed = ref true in
  while !changed do
    changed := false;
    SMap.iter
      (fun _ f ->
        List.iter
          (fun c ->
            match SMap.find_opt c.callee st.facts with
            | None -> ()
            | Some g ->
                if not (SSet.mem c.callee race_barriers) then begin
                  List.iter
                    (fun (k, r) ->
                      if SSet.mem k g.mut_params then
                        match r with
                        | Param p ->
                            if not (SSet.mem p f.mut_params) then begin
                              f.mut_params <- SSet.add p f.mut_params;
                              changed := true
                            end
                        | GlobalR gl ->
                            if not (SSet.mem gl f.mut_globals) then begin
                              f.mut_globals <- SSet.add gl f.mut_globals;
                              changed := true
                            end
                        | _ -> ())
                    c.cargs;
                  if not (SSet.subset g.mut_globals f.mut_globals) then begin
                    f.mut_globals <- SSet.union f.mut_globals g.mut_globals;
                    changed := true
                  end
                end;
                if not (SSet.mem c.callee purity_barriers) then begin
                  let e' = f.effects lor g.effects in
                  if e' <> f.effects then begin
                    f.effects <- e';
                    changed := true
                  end
                end)
          f.calls)
      st.facts
  done

(* ------------------------------------------------------------------ *)
(* Pass 1: domain races at parallel entry sites                       *)
(* ------------------------------------------------------------------ *)

let rec race_cbs st ~race_barriers ~race_globals ~ctx ~entry out encl =
  let bad loc msg =
    out :=
      mkf ~rule:"domain-race" ~file:ctx.file loc
        (msg ^ " (under " ^ entry ^ ")")
      :: !out
  in
  let cbs =
    {
      on_mut =
        (fun loc root desc ->
          match root with
          | GlobalR g when not (SSet.mem g race_globals) ->
              bad loc ("parallel closure mutates top-level `" ^ g ^ "` via " ^ desc)
          | SharedR d ->
              bad loc ("parallel closure mutates " ^ d ^ " via " ^ desc)
          | _ -> ());
      on_call =
        (fun loc callee cargs ->
          if not (SSet.mem callee race_barriers) then
            match SMap.find_opt callee st.facts with
            | None -> ()
            | Some g ->
                let bad_globals = SSet.diff g.mut_globals race_globals in
                SSet.iter
                  (fun gl ->
                    bad loc
                      ("parallel closure calls `" ^ callee
                     ^ "`, which mutates top-level `" ^ gl ^ "`"))
                  bad_globals;
                List.iter
                  (fun (k, r) ->
                    if SSet.mem k g.mut_params then
                      match r with
                      | GlobalR gl when not (SSet.mem gl race_globals) ->
                          bad loc
                            ("parallel closure passes top-level `" ^ gl
                           ^ "` to `" ^ callee ^ "`, which mutates its " ^ k
                           ^ " argument")
                      | SharedR d ->
                          bad loc
                            ("parallel closure passes " ^ d ^ " to `" ^ callee
                           ^ "`, which mutates its " ^ k ^ " argument")
                      | _ -> ())
                  cargs)
        ;
      on_effect = (fun _ _ _ -> ());
      on_entry =
        (fun _ _ _ nested_args nested_env ->
          (* a nested parallel entry inside the closure: same checks *)
          List.iter
            (fun (_, a) ->
              if is_arrow a.exp_type then
                check_farg st ~race_barriers ~race_globals ~ctx ~entry out encl
                  nested_env a)
            nested_args);
      on_alloc = None;
      ref_def = None;
      ref_use = None;
      encl;
    }
  in
  cbs

and check_farg st ~race_barriers ~race_globals ~ctx ~entry out encl env a =
  let shared_env =
    IdentMap.mapi
      (fun id r ->
        match r with
        | GlobalR _ -> r
        | _ -> SharedR ("captured local `" ^ Ident.name id ^ "`"))
      env
  in
  let bad loc msg =
    out :=
      mkf ~rule:"domain-race" ~file:ctx.file loc
        (msg ^ " (under " ^ entry ^ ")")
      :: !out
  in
  let check_known_callee loc name supplied =
    match SMap.find_opt name st.facts with
    | Some g when not (SSet.mem name race_barriers) ->
        SSet.iter
          (fun gl ->
            bad loc
              ("`" ^ name ^ "` runs in parallel and mutates top-level `" ^ gl
             ^ "`"))
          (SSet.diff g.mut_globals race_globals);
        List.iter
          (fun (k, r) ->
            if SSet.mem k g.mut_params then
              match r with
              | GlobalR gl when SSet.mem gl race_globals -> ()
              | _ ->
                  bad loc
                    ("partial application shares its " ^ k ^ " argument, and `"
                   ^ name ^ "` mutates it"))
          supplied
    | _ -> ()
  in
  match a.exp_desc with
  | Texp_function _ ->
      let cbs = race_cbs st ~race_barriers ~race_globals ~ctx ~entry out encl in
      walk ctx cbs shared_env a
  | Texp_ident (p, _, _) -> check_known_callee a.exp_loc (canon ctx p) []
  | Texp_apply (fh, args) -> (
      match head_ident fh with
      | Some p ->
          let args_e =
            List.filter_map (fun (l, x) -> Option.map (fun x -> (l, x)) x) args
          in
          check_known_callee a.exp_loc (canon ctx p)
            (keyed_roots ctx shared_env args_e)
      | None -> ())
  | _ -> ()

let race_pass st ~race_barriers ~race_globals out =
  List.iter
    (fun e ->
      if not (SSet.mem e.e_encl race_barriers) then
        List.iter
          (fun (_, a) ->
            if is_arrow a.exp_type then
              check_farg st ~race_barriers ~race_globals ~ctx:e.e_ctx
                ~entry:e.e_name out e.e_encl e.e_env a)
          e.e_args)
    (List.rev st.entries)

(* ------------------------------------------------------------------ *)
(* Pass 3: purity frontiers                                           *)
(* ------------------------------------------------------------------ *)

let purity_pass st ~purity_barriers ~rel_of out =
  SMap.iter
    (fun _ f ->
      match scope_of_rel (rel_of f.ffile) with
      | None -> ()
      | Some sc ->
          List.iter
            (fun mask ->
              if
                f.effects land mask <> 0
                && banned_effect ~scope:sc ~file:(rel_of f.ffile) mask
              then begin
                List.iter
                  (fun (m, name, loc) ->
                    if m = mask then
                      out :=
                        mkf ~rule:"impure" ~file:f.ffile loc
                          ("`" ^ name ^ "` (" ^ effect_desc mask ^ ") in `"
                         ^ f.fname ^ "`, whose scope bans it")
                        :: !out)
                  f.effect_sites;
                List.iter
                  (fun c ->
                    if not (SSet.mem c.callee purity_barriers) then
                      match SMap.find_opt c.callee st.facts with
                      | Some g when g.effects land mask <> 0 ->
                          let callee_banned =
                            match scope_of_rel (rel_of g.ffile) with
                            | Some gsc ->
                                banned_effect ~scope:gsc ~file:(rel_of g.ffile) mask
                            | None -> false
                          in
                          if not callee_banned then
                            out :=
                              mkf ~rule:"impure" ~file:f.ffile c.cloc
                                ("`" ^ f.fname ^ "` reaches a "
                               ^ effect_desc mask ^ " via `" ^ c.callee ^ "`")
                              :: !out
                      | _ -> ())
                  f.calls
              end)
            [ eff_rng; eff_wall; eff_stdout; eff_net ])
    st.facts

(* ------------------------------------------------------------------ *)
(* Driver                                                             *)
(* ------------------------------------------------------------------ *)

let discover_cmts ~root =
  let out = ref [] in
  let rec walk_fs dir =
    if Sys.file_exists dir && Sys.is_directory dir then begin
      let entries = Sys.readdir dir in
      Array.sort String.compare entries;
      Array.iter
        (fun ent ->
          let p = Filename.concat dir ent in
          if Sys.is_directory p then begin
            (* the seeded violations are the fixtures' point *)
            if not (String.equal ent "analyze_fixtures") then walk_fs p
          end
          else if Filename.check_suffix ent ".cmt" then out := p :: !out)
        entries
    end
  in
  List.iter
    (fun base ->
      List.iter
        (fun dir -> walk_fs (Filename.concat base dir))
        [ "lib"; "bin"; "bench"; "test"; "tools" ])
    [ Filename.concat root "_build/default"; root ];
  List.sort String.compare !out

let compare_finding (a : finding) (b : finding) =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c
      else
        let c = String.compare a.rule b.rule in
        if c <> 0 then c else String.compare a.message b.message

let apply_pragmas pragmas findings =
  let keep =
    List.filter
      (fun f ->
        if String.equal f.rule "bad-pragma" || String.equal f.rule "unused-pragma"
        then true
        else
          match
            List.find_opt
              (fun p ->
                String.equal p.p_file f.file
                && String.equal p.p_rule f.rule
                && (p.p_line = f.line || p.p_line = f.line - 1))
              pragmas
          with
          | Some p ->
              p.p_used <- true;
              false
          | None -> true)
      findings
  in
  let unused =
    List.filter_map
      (fun p ->
        if p.p_used then None
        else
          Some
            {
              rule = "unused-pragma";
              file = p.p_file;
              line = p.p_line;
              col = 0;
              message =
                "pragma allows `" ^ p.p_rule ^ "` but suppressed nothing";
            })
      pragmas
  in
  keep @ unused

let analyze ?sanctions ?hotpaths ?(rel_of = Fun.id) ~root ~cmt_paths () =
  let sanctions =
    match sanctions with
    | Some s -> s
    | None ->
        load_sanctions
          ~path:(Filename.concat root "tools/analyze/sanctions.sexp")
  in
  let hotpaths =
    match hotpaths with
    | Some h -> h
    | None ->
        load_hotpaths ~path:(Filename.concat root "tools/analyze/hotpaths.sexp")
  in
  let pick kind =
    SSet.of_list
      (List.filter_map
         (fun s -> if s.s_kind = kind then Some s.s_name else None)
         sanctions)
  in
  let race_barriers = pick Race_barrier in
  let race_globals = pick Race_global in
  let purity_barriers = pick Purity_barrier in
  let st =
    {
      facts = SMap.empty;
      entries = [];
      pragmas = [];
      pre_findings = [];
      known = SSet.empty;
      hot = SSet.of_list hotpaths;
    }
  in
  List.iter (fun p -> load_unit st ~root ~rel_of p) cmt_paths;
  (* A registry entry that names nothing would silently drop a hot path
     or keep a sanction alive after a rename: fail loudly instead. *)
  let check_registry file names =
    List.iter
      (fun n ->
        if not (SSet.mem n st.known) then
          Error.invalid_input ~where:"archpred-analyze"
            ("`" ^ n ^ "` names no known function or value; fix tools/analyze/"
           ^ file))
      names
  in
  check_registry "hotpaths.sexp" hotpaths;
  check_registry "sanctions.sexp" (List.map (fun s -> s.s_name) sanctions);
  fixpoint st ~race_barriers ~purity_barriers;
  let out = ref st.pre_findings in
  race_pass st ~race_barriers ~race_globals out;
  purity_pass st ~purity_barriers ~rel_of out;
  let filtered = apply_pragmas st.pragmas !out in
  List.sort_uniq compare_finding filtered

let errors (fs : finding list) = List.length fs

let to_json (f : finding) =
  Json.Obj
    [
      ("event", Json.String "finding");
      ("rule", Json.String f.rule);
      ("severity", Json.String "error");
      ("file", Json.String f.file);
      ("line", Json.Int f.line);
      ("col", Json.Int f.col);
      ("message", Json.String f.message);
    ]

let pp_finding ppf (f : finding) =
  Format.fprintf ppf "%s:%d:%d: [%s] %s" f.file f.line f.col f.rule f.message
