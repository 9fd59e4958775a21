#!/usr/bin/env bash
# Build the benchmark harness from source, then run one workload:
#   bash perfbench/run.sh --workload W --seed S --seconds N --trace 0|1
# Run from the repository root.  The build goes to _build/ with dune's
# shared cache off, so nothing is written outside the checkout; its
# messages go to stderr, keeping the harness's JSON line last on stdout.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/perf.exe >&2
exec ./_build/default/perfbench/perf.exe run "$@"
