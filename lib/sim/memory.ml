type t = {
  il1 : Cache.t;
  dl1 : Cache.t;
  l2 : Cache.t;
  dram : Dram.t;
  l2_prefetch : bool;
  line_bytes : int;
}

let create ?(l2_prefetch = false) ~il1 ~dl1 ~l2 ~dram () =
  {
    il1 = Cache.create il1;
    dl1 = Cache.create dl1;
    l2 = Cache.create l2;
    dram = Dram.create dram;
    l2_prefetch;
    line_bytes = l2.Cache.line_bytes;
  }

let through_l2 t ~addr ~after_l1 =
  if Cache.access t.l2 addr then after_l1 + Cache.latency t.l2
  else begin
    let start = after_l1 + Cache.latency t.l2 in
    let finish = Dram.access t.dram ~cycle:start ~addr in
    if t.l2_prefetch then begin
      (* Next-line prefetch: fill the following line if absent.  The
         prefetch is issued right behind the demand miss, so nothing waits
         for it, but it occupies a DRAM bank and the bus — useless
         prefetches steal real bandwidth from later demand misses. *)
      let next = addr + t.line_bytes in
      if not (Cache.probe t.l2 next) then begin
        ignore (Cache.access t.l2 next);
        ignore (Dram.access t.dram ~cycle:start ~addr:next)
      end
    end;
    finish
  end

let fetch t ~cycle ~addr =
  let after_l1 = cycle + Cache.latency t.il1 in
  if Cache.access t.il1 addr then after_l1
  else through_l2 t ~addr ~after_l1

let load t ~cycle ~addr =
  let after_l1 = cycle + Cache.latency t.dl1 in
  if Cache.access t.dl1 addr then after_l1
  else through_l2 t ~addr ~after_l1

let store t ~cycle ~addr =
  if not (Cache.access t.dl1 addr) then
    if not (Cache.access t.l2 addr) then
      ignore (Dram.access t.dram ~cycle ~addr)

let il1 t = t.il1
let dl1 t = t.dl1
let l2 t = t.l2
let dram t = t.dram

let reset_stats t =
  Cache.reset_stats t.il1;
  Cache.reset_stats t.dl1;
  Cache.reset_stats t.l2;
  Dram.reset_stats t.dram
