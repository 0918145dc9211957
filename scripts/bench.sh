#!/bin/sh
# Benchmark sweep: runs every benchmark (E1..E15 plus the package
# micro-benchmarks — E15 is the gemgo extraction+race-analysis corpus
# pass, so the static race pipeline has a perf baseline) with
# allocation stats and records the run as
# BENCH_<date>.json next to the raw text output. The JSON is produced by
# cmd/benchjson and carries a host section (GOMAXPROCS/NumCPU, so
# single-CPU hosts are identifiable) plus a delta section with new/old
# ratios against the most recent earlier BENCH_*.json — including
# records in the original bare-array format. Usage, from the repository
# root:
#
#   ./scripts/bench.sh                # all benchmarks, one iteration set
#   ./scripts/bench.sh BenchmarkE4    # filter by -bench regexp
set -eu
cd "$(dirname "$0")/.."

pattern="${1:-.}"
date="$(date +%Y%m%d)"
txt="BENCH_${date}.txt"
json="BENCH_${date}.json"

# The most recent record is the delta baseline — possibly today's own
# file when the sweep reruns on the same day, which is why the new JSON
# is staged in a temp file instead of truncating the baseline first.
prev="$(ls BENCH_*.json 2>/dev/null | sort | tail -n 1 || true)"

echo "==> go test -run '^$' -bench $pattern -benchmem ./..."
go test -run '^$' -bench "$pattern" -benchmem ./... | tee "$txt"

# The warm arm of E14 must stay dramatically faster than the cold arm —
# the incremental-checking claim. It is an in-run comparison (no
# baseline record needed), added conditionally so filtered sweeps that
# skip E14 still work.
compares=""
if grep -q 'BenchmarkE14WarmStore/cold' "$txt" && grep -q 'BenchmarkE14WarmStore/warm' "$txt"; then
	compares="-compare BenchmarkE14WarmStore/cold,BenchmarkE14WarmStore/warm>=5"
fi
# Same in-run claim for the mutation campaign (E16): the warm store must
# serve the per-restriction verdicts the campaign's checks and shrinks
# keep re-requesting. The bound is looser than E14's — campaigns also pay
# for generation, dedup, shrinking and the uncached oracle, which the
# store cannot skip.
if grep -q 'BenchmarkE16Campaign/cold' "$txt" && grep -q 'BenchmarkE16Campaign/warm' "$txt"; then
	compares="$compares -compare BenchmarkE16Campaign/cold,BenchmarkE16Campaign/warm>=2"
fi

if [ -n "$prev" ]; then
	# The always-on instrumentation (internal/obs) must stay free when
	# disabled: the E4 j1 ns/op and allocs/op ratios against the previous
	# record are bounded at 1.10 (generous run-to-run noise, tight enough
	# to catch a hot-path allocation). The E12 lattice-engine
	# counterexample path gets the same bound once a baseline record
	# contains it (benchjson -assert errors on a name missing from either
	# record, so the bound is added conditionally). benchjson writes the
	# record before evaluating the assertions, so a regression still
	# leaves the JSON — only the exit status reports it.
	asserts="-assert BenchmarkE4MonitorRW/j1<=1.10"
	if grep -q 'BenchmarkE12FailingSpecs/reads-finish-first/engine=lattice' "$prev" &&
		grep -q 'BenchmarkE12FailingSpecs/reads-finish-first/engine=lattice' "$txt"; then
		asserts="$asserts -assert BenchmarkE12FailingSpecs/reads-finish-first/engine=lattice<=1.10"
	fi
	status=0
	# shellcheck disable=SC2086 # $asserts/$compares are flag lists, word-split on purpose
	go run ./cmd/benchjson -prev "$prev" $asserts $compares \
		<"$txt" >"$json.tmp" || status=$?
	mv "$json.tmp" "$json"
	echo "==> wrote $txt and $json (delta vs $prev)"
	if [ "$status" -ne 0 ]; then
		echo "==> FAIL: benchmark regression vs $prev (see delta/compare sections in $json)" >&2
		exit "$status"
	fi
else
	echo "==> no baseline BENCH_*.json found, skipping regression asserts"
	status=0
	# shellcheck disable=SC2086 # $compares is a flag list, word-split on purpose
	go run ./cmd/benchjson $compares <"$txt" >"$json.tmp" || status=$?
	mv "$json.tmp" "$json"
	echo "==> wrote $txt and $json (this run becomes the baseline)"
	if [ "$status" -ne 0 ]; then
		echo "==> FAIL: warm-store speedup below bound (see compare section in $json)" >&2
		exit "$status"
	fi
fi
