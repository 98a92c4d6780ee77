#!/bin/sh
# Build the pipeline benchmark from source and run it, from the root of a
# dc_spanner checkout:
#
#   sh bench/perf/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to stderr, so the last line of stdout stays the
# benchmark's JSON result.  The shared dune cache is disabled so the build
# reads and writes only inside the checkout.
set -eu
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f bench/perf/dune ]; then
  echo "bench/perf/run.sh: run from the root of a dc_spanner checkout" >&2
  exit 2
fi
DUNE_CACHE=disabled dune build --root . bench/perf/perf.exe 1>&2
exec ./_build/default/bench/perf/perf.exe "$@"
