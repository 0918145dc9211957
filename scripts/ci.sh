#!/bin/sh
# CI gate: vet, lint, build, and run the full test suite under the race
# detector (the parallel check engine is concurrency-heavy, so -race is
# mandatory, not optional). Run from the repository root:
#
#   ./scripts/ci.sh          # full suite
#   ./scripts/ci.sh -short   # fast subset (exhaustive explorations skipped)
set -eu
cd "$(dirname "$0")/.."

echo "==> go vet ./..."
go vet ./...
echo "==> gofmt -l ."
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
	echo "==> FAIL: gofmt would reformat these files:" >&2
	echo "$unformatted" >&2
	exit 1
fi
if command -v staticcheck >/dev/null 2>&1; then
	echo "==> staticcheck ./..."
	staticcheck ./...
else
	echo "==> staticcheck not installed, skipping"
fi
if command -v govulncheck >/dev/null 2>&1; then
	echo "==> govulncheck ./..."
	govulncheck ./...
else
	echo "==> govulncheck not installed, skipping"
fi
echo "==> go build ./..."
go build ./...
echo "==> bench module: vet and test (its own module, built against the library's API)"
(cd bench && go vet . && go test .)
echo "==> gemlint -deep examples/specs"
go run ./cmd/gemlint -deep examples/specs/*.gem
echo "==> observability smoke: -stats/-trace produce valid trace-event JSON"
tracedir="$(mktemp -d)"
trap 'rm -rf "$tracedir"' EXIT
go run ./cmd/gemlint -deep -stats -trace "$tracedir/lint.json" examples/specs/*.gem >/dev/null 2>"$tracedir/lint.stats"
go run ./cmd/gemcheck -j 2 -cache off -stats -trace "$tracedir/check.json" rw >/dev/null 2>"$tracedir/check.stats"
go run ./cmd/gemverify -j 2 -cache off -trace "$tracedir/verify.json" >/dev/null
go run ./cmd/gemmut -n 250 -seed 7 -cache off -trace "$tracedir/mut.json" >/dev/null
go run ./cmd/gemgo -trace "$tracedir/gemgo.json" internal/gofront/testdata/src/clean_gem013_paired >/dev/null
# gemc with -trace detached and after the spec: it once wrote the trace
# over the spec, so it runs on a copy and the copy must survive intact.
cp examples/specs/boundedbuffer.gem "$tracedir/spec.gem"
go run ./cmd/gemc "$tracedir/spec.gem" -trace "$tracedir/gemc.json" >/dev/null
cmp examples/specs/boundedbuffer.gem "$tracedir/spec.gem"
go run ./cmd/tracecheck -min-spans 1 "$tracedir/lint.json" "$tracedir/check.json" \
	"$tracedir/verify.json" "$tracedir/mut.json" "$tracedir/gemgo.json" "$tracedir/gemc.json"
grep -q '== spans ==' "$tracedir/check.stats"
# gemlint -deep times each file's shallow and deep passes in their own
# spans; a merge that drops or renames either fails here.
grep -q '^lint\.analyze ' "$tracedir/lint.stats"
grep -q '^analyze\.deep ' "$tracedir/lint.stats"
echo "==> examples: each exits 0, with the same output on two runs"
# cspbuffer and readerswriters drive the CSP and monitor simulators and
# csp.Spec end to end; no test runs the examples' main packages.
for ex in quickstart cspbuffer readerswriters life; do
	go build -o "$tracedir/example.$ex" "./examples/$ex"
	for run in 1 2; do
		if ! "$tracedir/example.$ex" >"$tracedir/example.$ex.$run.out" 2>&1; then
			echo "==> FAIL: examples/$ex exited nonzero:" >&2
			cat "$tracedir/example.$ex.$run.out" >&2
			exit 1
		fi
	done
	if ! cmp -s "$tracedir/example.$ex.1.out" "$tracedir/example.$ex.2.out"; then
		echo "==> FAIL: examples/$ex printed different output on two runs:" >&2
		diff "$tracedir/example.$ex.1.out" "$tracedir/example.$ex.2.out" >&2
		exit 1
	fi
done
echo "==> gemgo fixture corpora: defects report exactly their code, cleans report nothing"
go build -o "$tracedir/gemgo" ./cmd/gemgo
for dir in internal/gofront/testdata/src/*/ internal/race/testdata/src/*/; do
	name="$(basename "$dir")"
	out="$tracedir/gemgo.$name.out"
	status=0
	"$tracedir/gemgo" "$dir" >"$out" 2>&1 || status=$?
	case "$name" in
	clean_*)
		if [ "$status" -ne 0 ] || [ -s "$out" ]; then
			echo "==> FAIL: clean fixture $name reported findings (exit $status):" >&2
			cat "$out" >&2
			exit 1
		fi
		;;
	*)
		want="$(echo "$name" | cut -d_ -f1 | tr '[:lower:]' '[:upper:]')"
		got="$(grep -o 'GEM[0-9]*' "$out" | sort -u)"
		if [ "$status" -eq 0 ] || [ "$got" != "$want" ]; then
			echo "==> FAIL: fixture $name: want exactly $want (exit nonzero), got codes [$got] exit $status:" >&2
			cat "$out" >&2
			exit 1
		fi
		;;
	esac
done
echo "==> gemgo SARIF smoke: corpus output is one valid gemgo-driver run"
"$tracedir/gemgo" -format=sarif internal/gofront/testdata/src/... >"$tracedir/gemgo.sarif" || true
grep -q '"version": "2.1.0"' "$tracedir/gemgo.sarif"
grep -q '"name": "gemgo"' "$tracedir/gemgo.sarif"
grep -q '"ruleId": "GEM013"' "$tracedir/gemgo.sarif"
echo "==> gemgo race-pass SARIF smoke over a racy fixture"
"$tracedir/gemgo" -format=sarif internal/race/testdata/src/gem018_unlocked_counter >"$tracedir/race.sarif" || true
grep -q '"version": "2.1.0"' "$tracedir/race.sarif"
grep -q '"ruleId": "GEM018"' "$tracedir/race.sarif"
echo "==> gemgo race corpus: -j1 and -j4 output byte-identical"
"$tracedir/gemgo" -j 1 internal/race/testdata/src/... >"$tracedir/race.j1.out" || true
"$tracedir/gemgo" -j 4 internal/race/testdata/src/... >"$tracedir/race.j4.out" || true
cmp "$tracedir/race.j1.out" "$tracedir/race.j4.out"
grep -q 'GEM018' "$tracedir/race.j1.out"
grep -q 'GEM019' "$tracedir/race.j1.out"
grep -q 'GEM020' "$tracedir/race.j1.out"
echo "==> gemgo: an import the go command cannot serve fails loudly (GOCACHE=off)"
# With GOCACHE=off the go command refuses to build, so gemgo cannot read
# the export data of sync. Without sync the extraction finds no lock, and
# the package would read as clean; it must fail with exit 2 instead.
status=0
GOCACHE=off "$tracedir/gemgo" internal/gofront/testdata/src/clean_gem014_ordered \
	>"$tracedir/nocache.out" 2>"$tracedir/nocache.err" || status=$?
if [ "$status" -ne 2 ] || ! grep -q 'sync' "$tracedir/nocache.err"; then
	echo "==> FAIL: gemgo with GOCACHE=off: want exit 2 naming sync, got exit $status:" >&2
	cat "$tracedir/nocache.out" "$tracedir/nocache.err" >&2
	exit 1
fi
echo "==> gemcheck rw: -j1 and -j4 output byte-identical"
go build -o "$tracedir/gemcheck" ./cmd/gemcheck
"$tracedir/gemcheck" -j 1 -cache off rw >"$tracedir/rw.j1.out"
"$tracedir/gemcheck" -j 4 -cache off rw >"$tracedir/rw.j4.out"
cmp "$tracedir/rw.j1.out" "$tracedir/rw.j4.out"
echo "==> lattice engine gate: the full matrix, no silent sequence fallback"
# -cache off keeps this gate hermetic: a warm store would serve the
# verdicts from disk and the engine.lattice spans below would vanish.
go run ./cmd/gemverify -j 2 -cache off -stats >/dev/null 2>"$tracedir/verify.stats"
# The lattice engine must actually carry the temporal restrictions...
grep -q 'engine\.lattice ' "$tracedir/verify.stats"
# ...and never hit an inconclusive bound: a fallback counter in the
# stats means some check silently delegated to sequence enumeration.
# Only the lattice engine counts fallbacks. The □-invariant formulas the
# history reduction takes instead have an exact lattice lower bound, so
# they cannot fall back: the gate covers every formula that can.
if grep -q 'engine\.lattice\.fallback' "$tracedir/verify.stats"; then
	echo "==> FAIL: lattice engine silently fell back to sequence enumeration on a shipped spec" >&2
	grep 'engine\.lattice\.fallback' "$tracedir/verify.stats" >&2
	exit 1
fi
echo "==> exploration redundancy gate: each computation reached once, not once per interleaving"
# The matrix and its refutations emit 217 distinct computations. Without
# sleep sets the explorer reached 3,709 complete schedules to find them;
# with them it reaches 217. gemcheck rw explores five monitor variants
# on two workloads, 420 computations, which the matrix does not cover,
# and gemcheck distributed the 6 of dbupdate. The explorer compares
# only runs that take a choice their events may not record, and no
# shipped program takes one, so leaves and emitted differ only where
# MaxRuns stops a walk, and a computation reached twice shows as one
# leaf too many, dropped or not. An edit to the explorer or to a
# language's Independent method that lets redundant interleavings back
# in fails here, as does one that loses a computation. The number of
# branches the sleep sets prune pins the walk's shape as well: a change
# that visits the same leaves along other paths moves it.
explore_gate() { # explore_gate WANT PRUNED COMMAND...: COMMAND -stats must show WANT runs and PRUNED pruned branches
	want="$1"
	wantpruned="$2"
	shift 2
	"$@" >/dev/null 2>"$tracedir/explore.stats"
	leaves="$(awk '$1 == "explore.leaves" {print $2}' "$tracedir/explore.stats")"
	emitted="$(awk '$1 == "explore.emitted" {print $2}' "$tracedir/explore.stats")"
	pruned="$(awk '$1 == "explore.pruned" {print $2}' "$tracedir/explore.stats")"
	if [ "${emitted:-0}" -ne "$want" ] || [ "${leaves:-999999}" -gt "$want" ] || [ "${pruned:-0}" -ne "$wantpruned" ]; then
		echo "==> FAIL: $*: explore.leaves = ${leaves:-missing}, explore.emitted = ${emitted:-missing}, explore.pruned = ${pruned:-missing}; want $want, $want and $wantpruned" >&2
		exit 1
	fi
}
explore_gate 217 140 go run ./cmd/gemverify -j 1 -cache off -stats
explore_gate 420 226 "$tracedir/gemcheck" -j 1 -cache off -stats rw
explore_gate 6 14 "$tracedir/gemcheck" -j 1 -cache off -stats distributed
echo "==> store write gate: a priming run writes the two check layers only, under unchanged keys; a warm rerun nothing"
# A -j 1 priming run of the matrix and its refutations writes 1,400
# records: 1,253 per-restriction verdicts and 147 whole-check sat
# records. It wrote 1,640 while the store also kept fast-path guard
# vectors and history lattices (120 each), which cost less to recompute
# than to read; a record layer that creeps back fails here. A rerun is
# served from those records and must write none. At -j 4 the
# refutations' speculative checks past the first failure write a
# varying number of records more, so the gate runs at -j 1, where both
# counts repeat.
storedir="$tracedir/writegate"
go run ./cmd/gemverify -j 1 -cache rw -cache-dir "$storedir" -stats >/dev/null 2>"$tracedir/prime.stats"
writes="$(awk '$1 == "store.write" {print $2}' "$tracedir/prime.stats")"
if [ "${writes:-0}" -ne 1400 ]; then
	echo "==> FAIL: priming run store.write = ${writes:-missing}; want 1400" >&2
	exit 1
fi
# The priming run is one handle, so it leaves one segment file, and the
# warm rerun appends nothing to it and creates no other. The keys those
# records carry (fingerprints, spec hashes, sat keys) are pinned by
# internal/store's TestStoreKeyDigest.
segments="$(find "$storedir" -type f)"
if [ "$(echo "$segments" | wc -l)" -ne 1 ] || [ "$(dirname "$segments")" != "$storedir/v2" ]; then
	echo "==> FAIL: the priming run left these files, want one segment under v2:" >&2
	echo "$segments" >&2
	exit 1
fi
size="$(wc -c <"$segments")"
go run ./cmd/gemverify -j 1 -cache rw -cache-dir "$storedir" -stats >/dev/null 2>"$tracedir/rerun.stats"
if grep -q '^store\.write ' "$tracedir/rerun.stats"; then
	echo "==> FAIL: warm rerun wrote to the store:" >&2
	grep '^store\.write ' "$tracedir/rerun.stats" >&2
	exit 1
fi
if [ "$(find "$storedir" -type f)" != "$segments" ] || [ "$(wc -c <"$segments")" -ne "$size" ]; then
	echo "==> FAIL: the warm rerun changed the store's files (want $segments, $size bytes):" >&2
	find "$storedir" -type f -exec ls -l {} + >&2
	exit 1
fi
echo "==> incremental store smoke: warm repeat hits, identical verdicts and SARIF"
cachedir="$tracedir/cache"
go run ./cmd/gemverify -j 2 -cache rw -cache-dir "$cachedir" \
	-sarif "$tracedir/cold.sarif" -stats >"$tracedir/cold.out" 2>"$tracedir/cold.stats"
go run ./cmd/gemverify -j 2 -cache rw -cache-dir "$cachedir" \
	-sarif "$tracedir/warm.sarif" -stats >"$tracedir/warm.out" 2>"$tracedir/warm.stats"
# The warm run must actually be served from the store...
grep -Eq 'store\.hit +[1-9]' "$tracedir/warm.stats"
# ...reporting verdicts identical modulo the per-run TIME column...
awk '{$4=""; print}' "$tracedir/cold.out" >"$tracedir/cold.verdicts"
awk '{$4=""; print}' "$tracedir/warm.out" >"$tracedir/warm.verdicts"
diff "$tracedir/cold.verdicts" "$tracedir/warm.verdicts"
# ...and a byte-identical SARIF log.
cmp "$tracedir/cold.sarif" "$tracedir/warm.sarif"
echo "==> mutation campaign gate: fixed seed, zero findings, -j1/-j4 byte-identical"
# A fixed-seed 250-mutant campaign must complete with zero
# disagreements with the oracle and zero shrinker validation failures
# (gemmut exits non-zero on any finding), and the report must be a pure
# function of the seed: identical bytes at any parallelism. -cache off
# keeps the gate hermetic.
go build -o "$tracedir/gemmut" ./cmd/gemmut
"$tracedir/gemmut" -n 250 -seed 7 -j 1 -cache off >"$tracedir/mut.j1.out"
"$tracedir/gemmut" -n 250 -seed 7 -j 4 -cache off >"$tracedir/mut.j4.out"
cmp "$tracedir/mut.j1.out" "$tracedir/mut.j4.out"
grep -q 'findings: none' "$tracedir/mut.j1.out"
echo "==> mutation campaign gate: the benchmark's 2000-mutant campaign, zero findings"
# The campaign the repository benchmark runs. Its check of production
# against the oracle over thousands of small specs is the broadest gate
# an evaluator change has; it takes about half a second.
"$tracedir/gemmut" -n 2000 -seed 11 -j 2 -cache off >"$tracedir/mut2000.out"
grep -q 'findings: none' "$tracedir/mut2000.out"
echo "==> mutation corpus smoke: a warm rerun appends nothing, and the persisted campaign replays with production agreeing with the oracle"
# The rerun is served from the store and puts the identical corpus
# entries and manifest again; the store already holds them, so it must
# write no record and leave the store's files as they were.
mutcache="$tracedir/mutcache"
"$tracedir/gemmut" -n 250 -seed 7 -j 4 -cache rw -cache-dir "$mutcache" >/dev/null
mutfiles="$(find "$mutcache" -type f -exec wc -c {} + | sort)"
"$tracedir/gemmut" -n 250 -seed 7 -j 4 -cache rw -cache-dir "$mutcache" -stats >/dev/null 2>"$tracedir/mutrerun.stats"
if grep -q '^store\.write ' "$tracedir/mutrerun.stats"; then
	echo "==> FAIL: warm campaign rerun wrote to the store:" >&2
	grep '^store\.write ' "$tracedir/mutrerun.stats" >&2
	exit 1
fi
if [ "$(find "$mutcache" -type f -exec wc -c {} + | sort)" != "$mutfiles" ]; then
	echo "==> FAIL: the warm campaign rerun changed the store's files (want $mutfiles):" >&2
	find "$mutcache" -type f -exec wc -c {} + >&2
	exit 1
fi
"$tracedir/gemmut" -replay gemmut -cache rw -cache-dir "$mutcache" | grep -q 'production and oracle agree on all'
echo "==> go test -race $* ./..."
go test -race "$@" ./...
echo "==> allocation ceilings without the race detector"
# The race detector changes allocation sizes, so the heap and allocation
# ceilings of the explorations do not build under -race; this runs them.
go test -count=1 -run Ceiling "$@" ./...
echo "==> bench smoke (-short, one iteration per benchmark)"
go test -run '^$' -bench . -benchtime 1x -short ./... >/dev/null
echo "==> ok"
