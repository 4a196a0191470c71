#!/usr/bin/env bash
# Build the server and avqbench from source, then run the benchmark.  Run
# from the repository root; arguments go to `avqbench run`, e.g.
#   bash benchmark/run.sh --workload serve_point --seed 1 --seconds 15 --trace 0
# Build output goes to stderr so the last line of stdout stays the JSON
# result.
set -euo pipefail
dune build --root . ./bin/avq.exe ./benchmark/avqbench.exe 1>&2
exec ./_build/default/benchmark/avqbench.exe run "$@"
