#!/usr/bin/env bash
# A/B the ledger benchmark: this checkout's working tree (the change)
# against a base commit (the parent), in alternating-order pairs.
#
#   make bench-ab [BASE=HEAD~1] [W=train-alg1] [PAIRS=10] [S=20] [SEED=951]
#   BASE=... W=... PAIRS=... S=... SEED=... bash bench/ab.sh
#
# BASE is checked out as a git worktree under _build/bench-ab/ and
# both trees are built from source.  Pair i runs
#   ledger.exe run --workload W --seed SEED+i --seconds S
# once in each tree, the base first in even pairs and the change
# first in odd ones.  W may name several workloads (space or comma
# separated); each pair then runs all of them in one ledger call per
# tree.  The script prints every pair's op_ms and the change's wins
# per workload, then runs the unchanged ledger_check on
# base -- change.  Its exit status is ledger_check's.  Result files
# stay under logs/bench-ab/.  Run from the repository root.
set -eu

if [ ! -f dune-project ] || [ ! -d bench/ledger ]; then
  echo "bench/ab.sh: run from the root of a dco3d checkout" >&2
  exit 2
fi

BASE=${BASE:-HEAD~1}
W=${W:-train-alg1}
PAIRS=${PAIRS:-10}
S=${S:-20}
SEED=${SEED:-951}

export DUNE_CACHE=disabled
unset DCO3D_TRACE DCO3D_PROFILE

root=$(pwd)
base_tree=$root/_build/bench-ab/base
base_rev=$(git rev-parse --verify "$BASE^{commit}")
out=$root/logs/bench-ab/$(date +%Y%m%d-%H%M%S)
mkdir -p "$out"

remove_worktree() {
  git worktree remove --force "$base_tree" 2>/dev/null || rm -rf "$base_tree"
  git worktree prune
}
remove_worktree
mkdir -p "$(dirname "$base_tree")"
git worktree add --detach --quiet "$base_tree" "$base_rev"
trap remove_worktree EXIT

workload_args=""
for w in $(echo "$W" | tr ',' ' '); do
  workload_args="$workload_args --workload $w"
done

build() {
  (cd "$1" && dune build --root . --display quiet \
    bench/ledger/ledger.exe bench/ledger/ledger_check.exe bin/dco3d.exe)
}
echo "bench-ab: building base $(git rev-parse --short "$base_rev") and the working tree" >&2
build "$base_tree"
build "$root"

# one ledger call in tree $1, labelled $2, at seed $3
run_side() {
  (cd "$1" && ./_build/default/bench/ledger/ledger.exe run $workload_args \
    --seed "$3" --seconds "$S" --out "$out/$2-$3.json") > "$out/$2-$3.log" ||
    echo "bench-ab: $2 run at seed $3 failed (see $out/$2-$3.log)" >&2
  awk '$2 == "op_ms" { print $1, $3 }' "$out/$2-$3.log"
}

for i in $(seq 0 $((PAIRS - 1))); do
  seed=$((SEED + i))
  if [ $((i % 2)) -eq 0 ]; then
    a=$(run_side "$base_tree" base "$seed")
    b=$(run_side "$root" change "$seed")
  else
    b=$(run_side "$root" change "$seed")
    a=$(run_side "$base_tree" base "$seed")
  fi
  # join the two sides' "workload op_ms" lines on the workload
  echo "$a" | while read -r w ma; do
    mb=$(echo "$b" | awk -v w="$w" '$1 == w { print $2 }')
    echo "pair $((i + 1)) seed $seed $w op_ms base $ma change $mb"
  done | tee -a "$out/pairs.txt"
done

echo "wins (change op_ms < base op_ms):"
awk '{ n[$5]++; if ($10 < $8) win[$5]++ }
     END { for (w in n) printf "  %-14s %d/%d\n", w, win[w], n[w] }' "$out/pairs.txt"

set +e
"$root/_build/default/bench/ledger/ledger_check.exe" --bench "$root/BENCHMARK.json" \
  "$out"/base-*.json -- "$out"/change-*.json
status=$?
echo "bench-ab: results in $out" >&2
exit $status
