#!/usr/bin/env bash
# Build the planner daemon and the benchmark from source, then run one
# workload:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to standard error so the result stays the last line
# of standard output; the shared dune cache stays off so the build
# writes only under the working tree.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . --cache=disabled ./perfbench/main.exe ./bin/lacrd.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
