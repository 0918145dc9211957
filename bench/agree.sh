#!/usr/bin/env bash
# Runs every workload once per seed, untraced, appending each result to
# a JSON-lines record file. Two such sets of the same code should agree
# within the bounds of BENCHMARK.json:
#
#   bash bench/agree.sh .bench_build/A.jsonl
#   bash bench/agree.sh .bench_build/B.jsonl
#   bash bench/run.sh -compare .bench_build/A.jsonl .bench_build/B.jsonl
#
# Record paths are relative to the checkout root. Seeds default to 1-10;
# seeds run in the outer loop so drift in the host's load spreads over
# all workloads.
set -euo pipefail
out=$1
shift
seeds=("$@")
if [ ${#seeds[@]} -eq 0 ]; then
	seeds=(1 2 3 4 5 6 7 8 9 10)
fi
here="$(cd "$(dirname "$0")" && pwd)"
for s in "${seeds[@]}"; do
	for w in matrix-cold matrix-warm sat-rw3 campaign gemgo-corpus; do
		bash "$here/run.sh" --workload "$w" --seed "$s" --trace 0 --record "$out" >/dev/null
	done
done
