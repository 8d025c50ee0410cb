#!/usr/bin/env sh
# Full verification gate: formatting, build, vet, race-enabled tests, a
# smoke run of the kernel benchmarks (one iteration — checks they still
# execute, not perf), an examples build + quickstart smoke run, a
# telemetry smoke run (parblast -report/-trace-out + artifact validation),
# and the host-clock benchmark's virtual-clock gate.
set -eu
cd "$(dirname "$0")/.."

# `check.sh lint-fast` is the seconds-fast pre-push path: lint only the
# packages whose .go files changed since origin/main (falling back to
# HEAD when that ref does not exist), instead of the whole module.
if [ "${1:-}" = "lint-fast" ]; then
    exec go run ./cmd/parblastlint -changed
fi

# gofmt produces no output when everything is formatted; any path printed
# is a failure.
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: unformatted files:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go build ./...
go vet ./...

# Invariant lint gate: the analyzers in internal/lint enforce the
# determinism contract (no wall clock, seeded randomness, no map-order
# leaks, matched MPI tags, clock-neutral telemetry). Fresh findings —
# anything not triaged into lint.baseline — fail the build.
go run ./cmd/parblastlint ./...

# The experiments package runs whole simulated-cluster sweeps per test
# and sits near go test's default 10m per-package limit under -race;
# give it explicit headroom rather than flaking on loaded machines.
go test -race -timeout 20m ./...

# Fuzz smoke: a few seconds per codec hardening target. Finds shallow
# panics in the wire codec and artifact reader without a long campaign.
go test -run=- -fuzz=FuzzWireQueries -fuzztime=5s ./internal/engine
go test -run=- -fuzz=FuzzReportParse -fuzztime=5s ./internal/report
go test -run=- -fuzz=FuzzFlowGraph -fuzztime=5s ./internal/trace
go test -run=- -bench=SearchFragment -benchtime=1x ./internal/blast
# Scheduler scale smoke: the mpi benchmarks (Barrier at 16–4096 ranks, a
# 1024-rank token ring and TreeReduce) execute once each.
go test -run=- -bench=. -benchtime=1x ./internal/mpi
go run ./examples/quickstart >/dev/null

# Telemetry smoke: a tiny end-to-end run must produce a parseable run
# report (metrics from all five layers) and a loadable Chrome trace.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go run ./cmd/makedb -o "$tmp/db.fasta" -seqs 60 -meanlen 120 -seed 7
go run ./cmd/makedb -o "$tmp/q.fasta" -seqs 6 -meanlen 80 -seed 3 -prefix qry
go run ./cmd/parblast -db "$tmp/db.fasta" -query "$tmp/q.fasta" \
    -engine pio -procs 4 -out "$tmp/results.txt" \
    -report "$tmp/run.json" -trace-out "$tmp/trace.json" >/dev/null
go run ./scripts/validatereport -run "$tmp/run.json" -trace "$tmp/trace.json"

# Latency/flow smoke: with -trace-flows the report carries the per-query
# percentile block and the exact critical path, the Chrome trace carries
# balanced flow-event pairs, and a repeated run reproduces the latency
# block byte for byte (the determinism gate).
go run ./cmd/parblast -db "$tmp/db.fasta" -query "$tmp/q.fasta" \
    -engine pio -procs 4 -batch 2 -out "$tmp/results_lat.txt" -trace-flows \
    -report "$tmp/lat1.json" -trace-out "$tmp/flows.json" >/dev/null
go run ./cmd/parblast -db "$tmp/db.fasta" -query "$tmp/q.fasta" \
    -engine pio -procs 4 -batch 2 -out "$tmp/results_lat2.txt" -trace-flows \
    -report "$tmp/lat2.json" >/dev/null
go run ./scripts/validatereport -run "$tmp/lat1.json" -trace "$tmp/flows.json" \
    -latency -latency-second "$tmp/lat2.json"

# Suite smoke: every experiment of the catalogue (fig1a … hetero, prep,
# faults, mergescale, iotune, latency, sla) runs end to end through the CLI
# on a scaled-down workload. The experiments enforce their own gates:
# mergescale's byte-identical layouts across fan-outs, iotune's tuned ≤
# fixed everywhere with a strict win somewhere, and sla's per-row byte
# identity against a one-shot run. The suite artifact must then pass the
# -sla gate (monotone percentiles, non-decreasing p99 along the rate sweep,
# a saturation row) and the learned-hints artifact must validate.
go run ./cmd/benchsuite -exp all -dbseqs 200 -querybytes 3000 -mergescale-ranks 8,16 \
    -report "$tmp/suite.json" -hints-out "$tmp/hints.json" >/dev/null
go run ./scripts/validatereport -sla "$tmp/suite.json" -hints "$tmp/hints.json"

# Serving-mode smoke: a streamed run over a warm cluster must be
# byte-identical to the one-shot run over the same queries — both engines.
go run ./cmd/parblast -db "$tmp/db.fasta" -query "$tmp/q.fasta" \
    -engine pio -procs 4 -serve -arrival-rate 2 -arrival-seed 9 \
    -out "$tmp/served_pio.txt" >/dev/null
cmp "$tmp/results.txt" "$tmp/served_pio.txt"
go run ./cmd/parblast -db "$tmp/db.fasta" -query "$tmp/q.fasta" \
    -engine mpi -procs 4 -out "$tmp/results_mpi.txt" >/dev/null
go run ./cmd/parblast -db "$tmp/db.fasta" -query "$tmp/q.fasta" \
    -engine mpi -procs 4 -serve -arrival-rate 2 -arrival-seed 9 \
    -out "$tmp/served_mpi.txt" >/dev/null
cmp "$tmp/results_mpi.txt" "$tmp/served_mpi.txt"

# I/O hints round trip: hints learned by one parblast run must validate
# and reproduce its output when a second run loads them.
go run ./cmd/parblast -db "$tmp/db.fasta" -query "$tmp/q.fasta" \
    -engine pio -procs 4 -collective-read -io-tune "$tmp/hints2.json" \
    -out "$tmp/results_tune.txt" >/dev/null
go run ./scripts/validatereport -hints "$tmp/hints2.json"
go run ./cmd/parblast -db "$tmp/db.fasta" -query "$tmp/q.fasta" \
    -engine pio -procs 4 -collective-read -io-hints "$tmp/hints2.json" \
    -out "$tmp/results_hinted.txt" >/dev/null
cmp "$tmp/results_tune.txt" "$tmp/results_hinted.txt"

# Perf-trajectory guard: the newest checked-in kernel benchmark record must
# not regress allocation counts against its predecessor.
go run ./scripts/benchdiff -old BENCH_1.json -new BENCH_2.json

# Host-clock benchmark gate: its own module vets and tests clean, and one
# short run per workload must pass the output oracle and match the virtual
# clocks pinned in hostbench/gate.go (run.sh exits non-zero otherwise).
(cd hostbench && go vet . && go test .)
for w in pio-wide mpi-narrow pio-serve merge-wide; do
    bash hostbench/run.sh --workload "$w" --seed 1 --seconds 1 --trace 0 >/dev/null
done
