#!/usr/bin/env bash
# Build the ledger benchmark and the dco3d daemon it drives from
# source, then run one workload:
#
#   bash bench/ledger/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Run from the repository root.  Build output goes to stderr, so the
# benchmark's result stays the last line of stdout.
set -eu

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "bench/ledger/run.sh: run from the root of a dco3d checkout" >&2
  exit 2
fi

# keep every build product inside the checkout
export DUNE_CACHE=disabled
unset DCO3D_TRACE DCO3D_PROFILE

dune build --root . --display quiet bench/ledger/ledger.exe bin/dco3d.exe >&2
exec ./_build/default/bench/ledger/ledger.exe "$@"
