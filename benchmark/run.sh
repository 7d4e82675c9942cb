#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument passes
# through to run.exe (see benchmark/README.md).  Build output goes to
# .bench_build and to stderr, so the last line of stdout is the result.
set -euo pipefail
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled dune build --root . --build-dir .bench_build --profile release \
  ./benchmark/run.exe 1>&2
exec .bench_build/default/benchmark/run.exe "$@"
