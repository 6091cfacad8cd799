#!/usr/bin/env bash
# Builds the benchmark from source, then runs it:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Build output goes to stderr, so the benchmark's last line of standard
# output is its result row.  Everything the build writes stays in the
# checkout's _build directory: dune's shared cache is switched off and
# the compiler's temporary files go to _build/tmp.
set -euo pipefail
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi
export DUNE_CACHE=disabled
mkdir -p _build/tmp
export TMPDIR="$PWD/_build/tmp"
dune build --root . --display quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
