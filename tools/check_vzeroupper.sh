#!/usr/bin/env bash
# Check that every function of the compiled C stubs that touches a %ymm
# or %zmm register leaves with clean upper register halves: on every
# path to a `ret` or to a jump out of the function, a `vzeroupper` (or
# `vzeroall`) follows the last instruction that names such a register.
# Dirty upper halves make every later legacy-SSE instruction of the
# process slow.  Run from the repository root after `dune build`:
#   bash tools/check_vzeroupper.sh
# Prints one line per SIMD function and exits 1 if any path leaves dirty.
set -euo pipefail
shopt -s globstar nullglob
objs=(_build/default/lib/**/*_stubs.o)
if [ ${#objs[@]} -eq 0 ]; then
  echo "check_vzeroupper: no _build/default/lib/**/*_stubs.o; run dune build" >&2
  exit 2
fi
status=0
for obj in "${objs[@]}"; do
  objdump -dr --no-show-raw-insn "$obj" | awk -v obj="$obj" '
    # Successors of each instruction: the next one unless it is a ret,
    # an unconditional jump or a trap, and a jump target inside this
    # function.  A ret, an indirect jump and a jump to another symbol
    # (direct, or through a relocation) leave the function.
    function resolve(   i, ins, op, t) {
      for (i = 1; i <= n; i++) {
        ins = text[i]
        sub(/^(bnd|notrack) +/, "", ins)
        op = ins; sub(/ .*/, "", op)
        falls[i] = 1; target[i] = 0; exits[i] = 0
        if (op ~ /^ret/) { falls[i] = 0; exits[i] = 1 }
        else if (op == "ud2" || op == "hlt") falls[i] = 0
        else if (op ~ /^j/) {
          if (op == "jmp") falls[i] = 0
          t = ins; sub(/^[a-z]+ +/, "", t); sub(/ .*/, "", t)
          if (!reloc[i] && index(ins, "<" name "+") && (t in index_of))
            target[i] = index_of[t]
          else exits[i] = 1
        }
      }
    }
    # May-be-dirty dataflow from a clean entry: instruction i is dirty
    # on entry if some path reaches it after a %ymm/%zmm instruction
    # with no vzeroupper in between.
    function analyse(   i, changed, out, bad) {
      if (!simd) return
      resolve()
      for (i = 1; i <= n; i++) dirty[i] = 0
      changed = 1
      while (changed) {
        changed = 0
        for (i = 1; i <= n; i++) {
          if (text[i] ~ /vzero(upper|all)/) out = 0
          else out = text[i] ~ /%[yz]mm/ ? 1 : dirty[i]
          if (!out) continue
          if (falls[i] && i < n && !dirty[i + 1]) { dirty[i + 1] = 1; changed = 1 }
          if (target[i] && !dirty[target[i]]) { dirty[target[i]] = 1; changed = 1 }
        }
      }
      bad = ""
      for (i = 1; i <= n; i++) if (exits[i] && dirty[i]) bad = bad " " addr[i]
      if (bad == "") printf "ok    %s %s\n", obj, name
      else {
        printf "DIRTY %s %s: exits at%s without vzeroupper\n", obj, name, bad
        failed = 1
      }
    }
    /^[0-9a-f]+ <[^>]+>:$/ {
      analyse()
      name = $2; sub(/^</, "", name); sub(/>:$/, "", name)
      n = 0; simd = 0
      split("", index_of); split("", reloc)
      next
    }
    /^\t+[0-9a-f]+: R_/ { reloc[n] = 1; next }
    /^ *[0-9a-f]+:\t/ {
      a = $0; sub(/^ */, "", a); sub(/:.*/, "", a)
      n++
      addr[n] = a; index_of[a] = n
      text[n] = $0; sub(/^ *[0-9a-f]+:\t/, "", text[n])
      if (text[n] ~ /%[yz]mm/) simd = 1
    }
    END { analyse(); exit failed }
  ' || status=1
done
exit $status
