#!/usr/bin/env sh
# Executor performance trajectory: run the short expression/executor
# benchmark subset and record it as BENCH_exec.json at the repo root.
#
# The subset pairs each compiled-path benchmark with its interpreted
# twin (exec.Options{Interpret: true}) so the JSON carries the ratio the
# PR gate checks: compiled ns/op must beat interpreted by >= 1.5x on the
# Q6 hot path while allocs/op stay at or below the interpreted figures.
#
#   scripts/bench.sh            # ~3 min, writes BENCH_exec.json + BENCH_stats.json
#                               #         + BENCH_serve.json
#   scripts/bench.sh -benchtime 5x   # extra args go to `go test`
#
# Output schema (one object per benchmark line):
#   {"name": ..., "iterations": N, "ns_per_op": ..., "bytes_per_op": ...,
#    "allocs_per_op": ...}
# wrapped with go version + GOOS/GOARCH so figures from different
# machines are never compared blindly.
#
# The second half is the serving trajectory: boot cmd/qppserve (training
# in-process at SF 0.01), drive POST /predict with cmd/qppload at two
# concurrency levels, and record p50/p99/throughput per level as
# BENCH_serve.json (qppload's own output schema).
set -eu

cd "$(dirname "$0")/.."

out=BENCH_exec.json
tmp="$(mktemp)"
bindir="$(mktemp -d)"
serve_pid=""
cleanup() {
	rm -f "$tmp"
	rm -rf "$bindir"
	if [ -n "$serve_pid" ]; then
		kill "$serve_pid" 2>/dev/null || true
	fi
}
trap cleanup EXIT

# bench_json IN OUT [BASELINE]: convert the `go test -bench` lines in IN
# into JSON at OUT with awk (stdlib-only repo: no benchstat). BASELINE,
# when given, is one frozen JSON object printed as the "baseline" array
# ahead of the fresh figures. A bench line looks like:
#   BenchmarkFoo/sub-8  123  456 ns/op  789 B/op  12 allocs/op
bench_json() {
	awk -v goversion="$(go version)" -v baseline="${3:-}" '
BEGIN { n = 0 }
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name) # strip -GOMAXPROCS suffix
	iters = $2
	ns = ""; bytes = ""; allocs = ""
	for (i = 3; i < NF; i++) {
		if ($(i + 1) == "ns/op") ns = $i
		if ($(i + 1) == "B/op") bytes = $i
		if ($(i + 1) == "allocs/op") allocs = $i
	}
	if (ns == "") next
	line = sprintf("    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", name, iters, ns)
	if (bytes != "") line = line sprintf(", \"bytes_per_op\": %s", bytes)
	if (allocs != "") line = line sprintf(", \"allocs_per_op\": %s", allocs)
	line = line "}"
	lines[n++] = line
}
END {
	if (n == 0) {
		print "no benchmark lines parsed" > "/dev/stderr"
		exit 1
	}
	print "{"
	printf "  \"go\": \"%s\",\n", goversion
	if (baseline != "") {
		print "  \"baseline\": ["
		printf "    %s\n", baseline
		print "  ],"
	}
	print "  \"benchmarks\": ["
	for (i = 0; i < n; i++) printf "%s%s\n", lines[i], (i < n - 1 ? "," : "")
	print "  ]"
	print "}"
}
' "$1" > "$2"
	printf '\nwrote %s (%s benchmark lines)\n' "$2" "$(grep -c '"name"' "$2")"
}

# Full-query pairs (root package: Q1/Q6 expression paths, Q9/Q18 hash
# joins) + pure-expression pairs (internal/exec).
go test -run '^$' -bench 'BenchmarkExprCompiled|BenchmarkExprInterpreted' \
	-benchmem -benchtime=1s "$@" . | tee "$tmp"
go test -run '^$' -bench 'BenchmarkScalarEval' \
	-benchmem -benchtime=1s "$@" ./internal/exec/ | tee -a "$tmp"
# Cold planning vs trace replay: the per-query optimization cost the
# plan cache amortizes (perfbench's per-layer plancache.memo_us,
# plancache.rebind_us and opt.plan_miss_us hold the serving view of the
# same trade).
go test -run '^$' -bench 'BenchmarkPlanSQL|BenchmarkPlanReplay' \
	-benchmem -benchtime=1s "$@" ./internal/opt/ | tee -a "$tmp"

bench_json "$tmp" "$out"

# --- ANALYZE statistics benchmark -------------------------------------
# One pass over lineitem at SF 0.1 (~600k rows) per path: the streaming
# sketch ANALYZE (production) vs the exact oracle (differential tests).
# The baseline freezes the exact-path figures recorded the day the
# sketch path landed (~3.1s, 247 MB, 8.1M allocs per pass), so the
# sketch's memory/alloc advantage is always measured against the same
# denominator.
go test -run '^$' -bench BenchmarkAnalyzeStats -benchmem -benchtime=1x \
	"$@" ./internal/tpch/ | tee "$tmp"

bench_json "$tmp" BENCH_stats.json \
	'{"name": "BenchmarkAnalyzeStats/exact/lineitem", "iterations": 1, "ns_per_op": 3123666067, "bytes_per_op": 247272304, "allocs_per_op": 8094467}'

# --- serving load benchmark -------------------------------------------
# qppload self-waits on /healthz, so no curl/sleep polling here; the
# server trains its snapshot in-process before it starts listening.
serve_out=BENCH_serve.json
serve_addr=127.0.0.1:18099

go build -o "$bindir/qppserve" ./cmd/qppserve
go build -o "$bindir/qppload" ./cmd/qppload

"$bindir/qppserve" -addr "$serve_addr" -sf 0.01 -per-template 10 -seed 42 &
serve_pid=$!

"$bindir/qppload" -addr "http://$serve_addr" -levels 2,8 -n 400 -seed 7 \
	-wait 180s -out "$serve_out"

kill "$serve_pid" 2>/dev/null || true
serve_pid=""

printf '\nwrote %s (%s concurrency levels)\n' "$serve_out" "$(grep -c '"concurrency"' "$serve_out")"
