#!/usr/bin/env bash
# Builds the benchmark from source, then runs it with the given
# arguments (see perfbench/README.md). Build output goes to stderr, so
# standard output carries only the benchmark's report.
set -euo pipefail
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled dune build --root . --display quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
