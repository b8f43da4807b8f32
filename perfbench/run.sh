#!/usr/bin/env bash
# Build `lbt` and the benchmark from source, then run one workload.
#
#   bash perfbench/run.sh --workload hot-reads --seed 1 --seconds 10 --trace 0
#
# Run from the root of a checkout.  Build output goes to stderr; the
# benchmark's table and its one-line JSON result go to stdout.
set -euo pipefail

if [[ ! -f dune-project || ! -f bin/lbt.ml || ! -d lib/service ]]; then
  echo "perfbench: run from the root of a source checkout (dune-project, bin/, lib/ missing)" >&2
  exit 2
fi

# No shared dune cache: the build reads and writes only inside the
# checkout.
export DUNE_CACHE=disabled
dune build --root . --display quiet bin/lbt.exe perfbench/main.exe 1>&2

exec ./_build/default/perfbench/main.exe --lbt ./_build/default/bin/lbt.exe "$@"
