#!/usr/bin/env bash
# Build fgc and the benchmark from source, then run one workload:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the root of a checkout.  Build output goes to stderr, so the
# last line of stdout is the benchmark's JSON result.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -f bin/fgc.ml ] || [ ! -d lib ]; then
  echo "perfbench: run from the root of an fg checkout (no sources here)" >&2
  exit 2
fi
# The shared dune cache lives outside the checkout; keep the build inside.
DUNE_CACHE=disabled dune build --root . bin/fgc.exe perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
