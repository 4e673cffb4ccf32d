#!/usr/bin/env bash
# Build the archpred CLI and the benchmark from source, then run the
# benchmark with the given arguments.  Run it from the repository root:
#   bash perfbench/run.sh --workload paper_bin_hot --seed 7 --seconds 40 --trace 0
# Build output stays in _build/ (the shared dune cache is not used).
set -euo pipefail
dune build --root . --cache=disabled --display=quiet \
  ./bin/archpred.exe ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
