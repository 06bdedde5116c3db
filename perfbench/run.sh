#!/usr/bin/env bash
# Builds the benchmark and the daemon it drives from source, then runs
# the benchmark from the root of the checkout:
#
#   bash perfbench/run.sh --workload study|serve-hot|serve-race|all \
#     --seed N --seconds S --trace 0|1
#
# The build keeps its files inside the checkout (no shared dune cache)
# and writes to stderr, so the last line of stdout is the result.
set -eu
mkdir -p perfbench/out/tmp
TMPDIR="$PWD/perfbench/out/tmp" DUNE_CACHE=disabled \
  dune build --root . ./perfbench/bench.exe ./bin/pipesched_server.exe 1>&2
exec ./_build/default/perfbench/bench.exe "$@"
