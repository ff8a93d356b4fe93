#!/usr/bin/env bash
# Shows that a change moved no virtual number: builds the bench programs of a
# git ref and of the working tree, runs every bench whose output is
# deterministic in both, and diffs each bench's stdout, exit code and
# BENCH_*.json files.
#
# Usage:
#   scripts/virt_diff.sh <git-ref>     # e.g. scripts/virt_diff.sh HEAD~1
#
# The ref is extracted with `git archive` into a temporary directory; both
# trees are built there (optimized, as CMakeLists.txt defaults), so the
# regular build/ tree is left alone. Exits 0 when every output is identical,
# 1 on any difference (printed), 2 on a usage or build error.
#
# Left out: fig1_spsc_queue and fig2_mpsc_queue (Google-benchmark host
# timings) and ablation_queues (real threads timed on the host clock); their
# output differs from run to run. Every other bench is a pure function of the
# source on the virtual clock.
set -euo pipefail

cd "$(dirname "$0")/.."

if [[ $# -ne 1 ]]; then
  echo "usage: scripts/virt_diff.sh <git-ref>" >&2
  exit 2
fi
ref=$1
if ! git rev-parse --verify --quiet "${ref}^{commit}" > /dev/null; then
  echo "virt_diff: not a commit: $ref" >&2
  exit 2
fi

EXCLUDED=" fig1_spsc_queue fig2_mpsc_queue ablation_queues "
benches=()
for src in bench/*.cc; do
  name=$(basename "$src" .cc)
  [[ "$EXCLUDED" == *" $name "* ]] || benches+=("$name")
done

work=$(mktemp -d "${TMPDIR:-/tmp}/virt_diff.XXXXXX")
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/ref-src"
git archive "$ref" | tar -x -C "$work/ref-src"

# build <source dir> <build dir>
build() {
  cmake -S "$1" -B "$2" > "$2.log" 2>&1 &&
    cmake --build "$2" -j "$(nproc)" --target "${benches[@]}" >> "$2.log" 2>&1 || {
      echo "virt_diff: build of $1 failed; last lines of $2.log:" >&2
      tail -20 "$2.log" >&2
      exit 2
    }
}
echo "virt_diff: building $ref and the working tree (${#benches[@]} benches)"
build "$work/ref-src" "$work/ref-build"
build "$PWD" "$work/cur-build"

# run <tree> <bench>: output lands in $work/run/<tree>/<bench>/.
run() {
  local dir="$work/run/$1/$2"
  mkdir -p "$dir"
  local rc=0
  (cd "$dir" && "$work/$1-build/bench/$2" > stdout 2> stderr) || rc=$?
  echo "$rc" > "$dir/exit_code"
}

status=0
for b in "${benches[@]}"; do
  if [[ ! -x "$work/ref-build/bench/$b" ]]; then
    echo "virt_diff: $b: not in $ref"
    status=1
    continue
  fi
  run ref "$b"
  run cur "$b"
  # stdout, exit code and every BENCH_*.json either side wrote.
  if diff -r -x stderr "$work/run/ref/$b" "$work/run/cur/$b" > "$work/$b.diff"; then
    echo "virt_diff: $b: identical"
  else
    echo "virt_diff: $b: DIFFERS"
    head -40 "$work/$b.diff"
    status=1
  fi
done

if [[ $status -eq 0 ]]; then
  echo "virt_diff: OK: no difference from $ref"
else
  echo "virt_diff: outputs differ from $ref" >&2
fi
exit $status
