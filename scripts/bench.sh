#!/usr/bin/env bash
# bench.sh — run the perf-tracking benchmark set and emit a BENCH_<date>.json
# snapshot (benchmark name → ns/op, allocs/op, custom metrics) so future PRs
# have a baseline to compare against.
#
#   scripts/bench.sh                    # full run, writes BENCH_YYYY-MM-DD.json
#   scripts/bench.sh --short            # CI smoke: 1 iteration per benchmark
#   scripts/bench.sh --out my.json      # explicit output path
#   BENCH='BenchmarkHeadline.*' scripts/bench.sh   # custom pattern
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="3x"
MICROTIME="100000x"
OUT="BENCH_$(date +%F).json"
LABEL="$(git rev-parse --short HEAD 2>/dev/null || echo unversioned)"

while [ $# -gt 0 ]; do
  case "$1" in
    --short) BENCHTIME="1x"; MICROTIME="1000x"; shift ;;
    --out)   OUT="$2"; shift 2 ;;
    --label) LABEL="$2"; shift 2 ;;
    *) echo "unknown flag: $1" >&2; exit 2 ;;
  esac
done

# The perf-tracking set: end-to-end session throughput, kernel fixed cost,
# the headline experiment (simulated-time metrics must stay stable) plus its
# traced twin (tracing overhead must stay under budget), and the hot-path
# microbenchmarks.
BENCH="${BENCH:-BenchmarkLoaderSessionThroughput|BenchmarkSimulateSmallSession|BenchmarkHeadlineSpeedup|BenchmarkPipelineCostModel|BenchmarkFleetSession|BenchmarkClusterTenants|BenchmarkMultiNode\$|BenchmarkChurn|BenchmarkWarmEpoch|BenchmarkServe}"
MICRO="${MICRO:-BenchmarkVirtualSleep|BenchmarkSelectorWakeWait|BenchmarkVirtualSameDeadlineSleepers|BenchmarkSelectorDeadlineClaimed|BenchmarkVirtualDistinctDeadlines|BenchmarkProfilerRecord|BenchmarkPoolSharedContention}"

tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

go test -run '^$' -bench "$BENCH" -benchmem -benchtime "$BENCHTIME" . | tee "$tmp"
go test -run '^$' -bench "$MICRO" -benchmem -benchtime "$MICROTIME" \
  ./internal/simtime ./internal/core ./internal/data | tee -a "$tmp"

# The tracing-overhead gate below compares wall times, which a shared
# machine perturbs one-sidedly; rerun the headline pair a few more times so
# benchjson's min-of-N folding converges on the uncontended cost.
go test -run '^$' -bench 'BenchmarkHeadlineSpeedup' -benchmem \
  -benchtime "$BENCHTIME" -count 4 . | tee -a "$tmp"

go run ./scripts/benchjson -label "$LABEL" -out "$OUT" <"$tmp"
echo "wrote $OUT"

# Tracing-overhead gate: the traced headline run may cost at most 5% extra
# wall time over the untraced one, and the simulated-time metrics the two
# share must be bit-identical (tracing records; it must not perturb).
if grep -q '"BenchmarkHeadlineSpeedupTraced"' "$OUT"; then
  go run ./scripts/benchjson overhead "$OUT" \
    BenchmarkHeadlineSpeedup BenchmarkHeadlineSpeedupTraced
fi
