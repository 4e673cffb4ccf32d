module Error = Error
module Json = Json
module Sink = Sink

(* Elapsed time must come from a monotonic source (simulation batches run
   long enough for NTP slews to matter); bechamel's clock stub reads
   CLOCK_MONOTONIC in nanoseconds without allocating. *)
let now_ns () = Monotonic_clock.now ()
let seconds_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-9

type agg = { mutable total_ns : int64; mutable calls : int }

(* One counter buffer per domain.  Increments touch only the owning
   domain's hashtable (no lock, no sharing); the cells are atomics so a
   merge from another domain reads coherent values.  Buffers register
   themselves on first use so merges can reach every domain. *)
type buffer = (string, int Atomic.t) Hashtbl.t

type state = {
  sink : Sink.t;
  lock : Mutex.t;
  totals : (string, int) Hashtbl.t;  (* merged counter totals *)
  gauges : (string, float) Hashtbl.t;  (* last-written gauge values *)
  spans : (string list, agg) Hashtbl.t;
  mutable span_order : string list list;  (* first-seen order, reversed *)
  buffers : buffer list ref;
  dls : (string list ref * buffer) Domain.DLS.key;
      (* per-domain span stack and counter buffer *)
}

type t = state option

let null = None

let create ?(sink = Sink.silent) () =
  let lock = Mutex.create () in
  let buffers = ref [] in
  let dls =
    Domain.DLS.new_key (fun () ->
        let buf : buffer = Hashtbl.create 16 in
        Mutex.lock lock;
        buffers := buf :: !buffers;
        Mutex.unlock lock;
        (ref [], buf))
  in
  Some
    {
      sink;
      lock;
      totals = Hashtbl.create 32;
      gauges = Hashtbl.create 8;
      spans = Hashtbl.create 32;
      span_order = [];
      buffers;
      dls;
    }

let enabled t = t <> None

(* ---------- counters ---------- *)

let count t name v =
  match t with
  | None -> ()
  | Some s -> (
      let _, buf = Domain.DLS.get s.dls in
      match Hashtbl.find_opt buf name with
      | Some a -> ignore (Atomic.fetch_and_add a v)
      | None -> Hashtbl.add buf name (Atomic.make v))

let incr t name = count t name 1

(* Drain one domain buffer into the merged totals.  Caller holds the
   lock.  Draining a buffer owned by a *running* domain would race on the
   hashtable structure, so cross-domain merges (counters/report/close)
   must only happen outside parallel sections — which is where read APIs
   are called anyway; the owning domain's own buffer is always safe. *)
(* Bindings sorted by their (unique) string key.  Hashtbl iteration
   order is unspecified, and the values may carry floats (gauges), so
   determinism comes from sorting on the key alone. *)
let sorted_bindings tbl =
  (* archpred-analyze: allow hashtbl-order -- sanctioned wrapper: fold feeds a total-order key sort *)
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let sweep_locked s (buf : buffer) =
  (* archpred-analyze: allow hashtbl-order -- commutative int-add merge into totals *)
  Hashtbl.iter
    (fun name a ->
      let v = Atomic.exchange a 0 in
      if v <> 0 then
        let prev = Option.value ~default:0 (Hashtbl.find_opt s.totals name) in
        Hashtbl.replace s.totals name (prev + v))
    buf

let merge_all_locked s = List.iter (sweep_locked s) !(s.buffers)

let counters t =
  match t with
  | None -> []
  | Some s ->
      Mutex.lock s.lock;
      merge_all_locked s;
      let out = sorted_bindings s.totals in
      Mutex.unlock s.lock;
      out

let counter t name =
  match List.assoc_opt name (counters t) with Some v -> v | None -> 0

(* ---------- gauges ---------- *)

let gauge t name value =
  match t with
  | None -> ()
  | Some s ->
      Mutex.lock s.lock;
      Hashtbl.replace s.gauges name value;
      Sink.emit s.sink (Sink.Gauge { name; value });
      Mutex.unlock s.lock

(* ---------- spans ---------- *)

let record_span s path ns =
  Mutex.lock s.lock;
  (match Hashtbl.find_opt s.spans path with
  | Some a ->
      a.total_ns <- Int64.add a.total_ns ns;
      a.calls <- a.calls + 1
  | None ->
      Hashtbl.add s.spans path { total_ns = ns; calls = 1 };
      s.span_order <- path :: s.span_order);
  (* The issue's merge point: fold this domain's counter deltas into the
     shared totals whenever one of its spans closes. *)
  let _, buf = Domain.DLS.get s.dls in
  sweep_locked s buf;
  Sink.emit s.sink (Sink.Span { path; ns });
  Mutex.unlock s.lock

let with_span t name f =
  match t with
  | None -> f ()
  | Some s ->
      let stack, _ = Domain.DLS.get s.dls in
      stack := name :: !stack;
      let path = List.rev !stack in
      let t0 = now_ns () in
      Fun.protect f ~finally:(fun () ->
          let ns = Int64.sub (now_ns ()) t0 in
          (match !stack with [] -> () | _ :: tl -> stack := tl);
          record_span s path ns)

let spans t =
  match t with
  | None -> []
  | Some s ->
      Mutex.lock s.lock;
      let order = List.rev s.span_order in
      let out =
        List.map
          (fun path ->
            let a = Hashtbl.find s.spans path in
            (path, a.calls))
          order
      in
      Mutex.unlock s.lock;
      out

(* ---------- report / close ---------- *)

let pretty_ns ns =
  let f = Int64.to_float ns in
  if f >= 1e9 then Printf.sprintf "%.2f s" (f /. 1e9)
  else if f >= 1e6 then Printf.sprintf "%.2f ms" (f /. 1e6)
  else if f >= 1e3 then Printf.sprintf "%.1f us" (f /. 1e3)
  else Printf.sprintf "%Ld ns" ns

let parent path =
  match List.rev path with [] | [ _ ] -> None | _ :: rev -> Some (List.rev rev)

let leaf path = List.nth path (List.length path - 1)

let report t ppf =
  match t with
  | None -> ()
  | Some s ->
      Mutex.lock s.lock;
      merge_all_locked s;
      let order = List.rev s.span_order in
      let spans =
        List.map
          (fun p ->
            let a = Hashtbl.find s.spans p in
            (p, a.total_ns, a.calls))
          order
      in
      let counters = sorted_bindings s.totals in
      let gauges = sorted_bindings s.gauges in
      Mutex.unlock s.lock;
      let have p = List.exists (fun (q, _, _) -> q = p) spans in
      let children p =
        List.filter (fun (q, _, _) -> parent q = Some p) spans
      in
      let self_of p total =
        let child_total =
          List.fold_left
            (fun acc (_, ns, _) -> Int64.add acc ns)
            0L (children p)
        in
        Int64.max 0L (Int64.sub total child_total)
      in
      Format.fprintf ppf "@.=== observability report ===@.";
      if spans <> [] then begin
        Format.fprintf ppf "%-44s %12s %12s %8s@." "span (tree)" "total"
          "self" "calls";
        let rec print depth (p, total, calls) =
          let name = String.make (2 * depth) ' ' ^ leaf p in
          Format.fprintf ppf "%-44s %12s %12s %8d@." name (pretty_ns total)
            (pretty_ns (self_of p total))
            calls;
          List.iter (print (depth + 1)) (children p)
        in
        let roots =
          List.filter
            (fun (p, _, _) ->
              match parent p with None -> true | Some q -> not (have q))
            spans
        in
        List.iter (print 0) roots
      end;
      if counters <> [] then begin
        Format.fprintf ppf "counters@.";
        List.iter
          (fun (name, v) -> Format.fprintf ppf "  %-42s %12d@." name v)
          counters
      end;
      if gauges <> [] then begin
        Format.fprintf ppf "gauges@.";
        List.iter
          (fun (name, v) -> Format.fprintf ppf "  %-42s %12g@." name v)
          gauges
      end

let close t =
  match t with
  | None -> ()
  | Some s ->
      Mutex.lock s.lock;
      merge_all_locked s;
      let counters = sorted_bindings s.totals in
      List.iter
        (fun (name, value) -> Sink.emit s.sink (Sink.Counter { name; value }))
        counters;
      Sink.flush s.sink;
      Mutex.unlock s.lock
