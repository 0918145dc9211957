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
echo "==> gemcheck rw: -j1 and -j4 output byte-identical"
go build -o "$tracedir/gemcheck" ./cmd/gemcheck
"$tracedir/gemcheck" -j 1 -cache off rw >"$tracedir/rw.j1.out"
"$tracedir/gemcheck" -j 4 -cache off rw >"$tracedir/rw.j4.out"
cmp "$tracedir/rw.j1.out" "$tracedir/rw.j4.out"
echo "==> lattice engine gate: full matrix under forced -engine lattice, no silent seq fallback"
# -cache off keeps this gate hermetic: a warm store would serve the
# verdicts from disk and the engine.lattice spans below would vanish.
go run ./cmd/gemverify -engine lattice -j 2 -cache off -stats >/dev/null 2>"$tracedir/verify.stats"
# The lattice engine must actually carry the temporal restrictions...
grep -q 'engine\.lattice ' "$tracedir/verify.stats"
# ...and never hit an inconclusive bound: a fallback counter in the
# stats means some check silently delegated to sequence enumeration.
if grep -q 'engine\.lattice\.fallback' "$tracedir/verify.stats"; then
	echo "==> FAIL: lattice engine silently fell back to seq on a shipped spec" >&2
	grep 'engine\.lattice\.fallback' "$tracedir/verify.stats" >&2
	exit 1
fi
echo "==> exploration redundancy gate: each computation reached once, not once per interleaving"
# The matrix and its refutations emit 217 distinct computations. Without
# sleep sets the explorer reached 3,709 complete schedules to find them;
# with them it reaches 217. An edit to the driver or to a language's
# Independent method that lets redundant interleavings back in fails
# here, as does one that loses a computation.
go run ./cmd/gemverify -j 1 -cache off -stats >/dev/null 2>"$tracedir/explore.stats"
leaves="$(awk '$1 == "explore.leaves" {print $2}' "$tracedir/explore.stats")"
emitted="$(awk '$1 == "explore.emitted" {print $2}' "$tracedir/explore.stats")"
if [ "${emitted:-0}" -ne 217 ] || [ "${leaves:-999999}" -gt 217 ]; then
	echo "==> FAIL: explore.leaves = ${leaves:-missing}, explore.emitted = ${emitted:-missing}; want 217 and 217" >&2
	exit 1
fi
echo "==> incremental store smoke: warm repeat hits, identical verdicts and SARIF"
cachedir="$tracedir/cache"
go run ./cmd/gemverify -engine lattice -j 2 -cache rw -cache-dir "$cachedir" \
	-sarif "$tracedir/cold.sarif" -stats >"$tracedir/cold.out" 2>"$tracedir/cold.stats"
go run ./cmd/gemverify -engine lattice -j 2 -cache rw -cache-dir "$cachedir" \
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
# A fixed-seed 250-mutant campaign must complete with zero engine
# disagreements and zero shrinker validation failures (gemmut exits
# non-zero on any finding), and the report must be a pure function of
# the seed: identical bytes at any parallelism. -cache off keeps the
# gate hermetic.
go build -o "$tracedir/gemmut" ./cmd/gemmut
"$tracedir/gemmut" -n 250 -seed 7 -j 1 -cache off >"$tracedir/mut.j1.out"
"$tracedir/gemmut" -n 250 -seed 7 -j 4 -cache off >"$tracedir/mut.j4.out"
cmp "$tracedir/mut.j1.out" "$tracedir/mut.j4.out"
grep -q 'findings: none' "$tracedir/mut.j1.out"
echo "==> mutation campaign gate: the benchmark's 2000-mutant campaign, zero findings"
# The campaign the repository benchmark runs. Its three-engine
# cross-check over thousands of small specs is the broadest oracle an
# evaluator change has; it takes about half a second.
"$tracedir/gemmut" -n 2000 -seed 11 -j 2 -cache off >"$tracedir/mut2000.out"
grep -q 'findings: none' "$tracedir/mut2000.out"
echo "==> mutation corpus smoke: persisted campaign replays with engine agreement"
"$tracedir/gemmut" -n 250 -seed 7 -j 4 -cache rw -cache-dir "$tracedir/mutcache" >/dev/null
"$tracedir/gemmut" -replay gemmut -cache rw -cache-dir "$tracedir/mutcache" | grep -q 'engines agree on all'
echo "==> go test -race $* ./..."
go test -race "$@" ./...
echo "==> bench smoke (-short, one iteration per benchmark)"
go test -run '^$' -bench . -benchtime 1x -short ./... >/dev/null
echo "==> ok"
