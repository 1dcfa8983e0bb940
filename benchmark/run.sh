#!/usr/bin/env bash
# Builds bench_train and records one full set of results:
#
#   benchmark/run.sh [--seed N] [--label L]
#
# The four workloads run strictly one after another (tracing off), then the
# traced run of each, all at the run length BENCHMARK.json declares, and
# everything lands in benchmark/results/<L>.json with a machine section.
# Every metric is printed as `workload metric value unit`. Compare two sets
# of one seed with
#
#   bench_train --compare benchmark/results/a.json benchmark/results/b.json
set -euo pipefail
cd "$(dirname "$0")/.."

seed=0
label=run
while [ $# -gt 0 ]; do
  case "$1" in
    --seed) seed=$2 ;;
    --label) label=$2 ;;
    *) echo "usage: $0 [--seed N] [--label L]" >&2; exit 2 ;;
  esac
  shift 2
done

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/bench_train"

commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
if [ "$commit" != unknown ] && ! git diff --quiet HEAD -- . ':!benchmark/results' 2>/dev/null; then
  commit="$commit-dirty"
fi

out="benchmark/results/$label.json"
mkdir -p benchmark/results
rm -f "$out"

# The pool sizes itself to the machine; the data-parallel workload points
# its workers at one thread each on its own. An inherited setting would
# change what is measured.
for trace in 0 1; do
  for w in train-bf16 train-fp4 adaptive-snip dp2-socket-fp4; do
    env -u SNIP_THREADS -u SNIP_TRACE -u SNIP_SIMD "$bin" --workload "$w" --seed "$seed" \
      --trace "$trace" --out "$out" --label "$label" --commit "$commit" | grep -v '^{'
  done
done
echo "wrote $out"
