GO ?= go

.PHONY: check fmt vet lint lint-ledger assembly build test race fuzz sim-smoke bench-all bench bench-concurrent loadtest campaign-smoke campaign federation-smoke

# check is the CI gate: formatting, vet, the project linter, the
# one-assembly-path grep, build, the race-enabled tests, the decoder fuzz
# smoke, the simulator hot-path smoke, every ctsbench experiment, the batched-round smoke, the
# timeserve load smoke, the campaign smoke and the federation smoke. Targets that regenerate a
# committed virtual-time output (BENCH_fig5*.json, BENCH_campaign_smoke.json,
# BENCH_federation.json) do it through pinned.sh, which fails with the diff
# if the file moved.
check: fmt vet lint assembly build race fuzz sim-smoke bench-all bench-concurrent loadtest campaign-smoke federation-smoke

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# lint runs ctslint, the project's own static analysis (determinism and
# concurrency invariants; see DESIGN.md §8). Exceptions live in lint.allow.
lint:
	$(GO) run ./cmd/ctslint

# lint-ledger reruns the slow columns of the mutation ledger (DESIGN.md §8):
# every seeded bug of internal/lint's ledger goes into a copy of the module,
# which then runs build+vet, the tier-1 tests with and without -race, and the
# four pinned outputs. It prints the table DESIGN.md §8 carries and fails if
# some rule has no seeded bug that only the rule catches. Slow: minutes per
# row.
lint-ledger:
	$(GO) test -tags ledger -run '^TestMutationLedgerColumns$$' -v -timeout 0 ./internal/lint

# assembly holds the one-assembly-path rule (DESIGN.md §13): a replica is
# wired in internal/node and nowhere else, so no other non-test Go outside
# bench/ may call the layer constructors.
assembly:
	@if grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=node --exclude-dir=bench \
		'(replication|core|federation)\.New\(|\.EnableLease\(|timeserve\.Start\(' .; then \
		echo "replica wiring outside internal/node (see above)"; exit 1; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs the full suite under the default (Totem) orderer, then reruns
# the experiment suite over the leader-sequencer; Totem-specific tests skip
# themselves via totemOnly. Last, the orderer suites rerun with simnet
# poisoning each datagram's bytes once its receiver returns, which catches
# a receiver that keeps the payload slice.
race:
	$(GO) test -race -count=1 ./...
	$(GO) test -race -count=1 ./internal/experiment -orderer=seq
	$(GO) test -race -count=1 -tags simnetpoison ./internal/simnet ./internal/totem ./internal/order

# fuzz gives each socket-facing timeserve decoder ten seconds of
# coverage-guided input beyond its seed corpus (testdata/fuzz).
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParseRequest$$' -fuzztime 10s ./internal/timeserve
	$(GO) test -run '^$$' -fuzz '^FuzzParseResponse$$' -fuzztime 10s ./internal/timeserve

# sim-smoke runs one iteration of the simulator hot-path benchmarks: a
# Post through the kernel's same-instant lane, a typed delivery through its
# heap, one simnet datagram from Send to receiver, one token rotation of a
# 3-member Totem ring carrying a safe message, a 1000-processor restart wave
# through the gcs group tables (DESIGN.md §6), and one entry through a
# 100-member seq leader's acks (DESIGN.md §10).
sim-smoke:
	$(GO) test -run '^$$' -bench 'KernelPostStep|KernelDeliverStep|SendDeliver|TotemTokenVisit|ReannounceWave1000|SeqLeaderAcks100' -benchtime 1x ./internal/sim ./internal/simnet ./internal/totem ./internal/gcs ./internal/order

# bench-all runs every ctsbench experiment at its scaled size, gates
# included, and writes no files.
bench-all:
	$(GO) run ./cmd/ctsbench -exp all -out ""

bench:
	./pinned.sh BENCH_fig5.json $(GO) run ./cmd/ctsbench -exp fig5 -out .

# bench-concurrent smokes the batched-round path (DESIGN.md §9): ctsbench
# exits nonzero unless concurrent readers coalesced rounds and their mean
# per-read overhead is at most half the single-reader overhead. Writes
# BENCH_fig5_concurrent.json.
bench-concurrent:
	./pinned.sh BENCH_fig5_concurrent.json $(GO) run ./cmd/ctsbench -exp fig5concurrent -out .

# loadtest smokes the external time-serving plane twice. The race-enabled
# run checks the lease invariants (staleness bound, per-replica monotonicity)
# under the race detector with a 100k queries/s floor. The plain run drives
# the batched recvmmsg/sendmmsg path with 8-datagram client bursts and gates
# the hot-path regressions: ≥600k queries/s, ≤0.25 server syscalls per
# query, zero allocations per batched serve cycle. Writes the headline
# BENCH_timeserve.json (plain, batched) and BENCH_timeserve_race.json.
loadtest:
	$(GO) run -race ./cmd/ctsload -inprocess -duration 5s -min-qps 100000 -json BENCH_timeserve_race.json
	$(GO) run ./cmd/ctsload -inprocess -duration 5s -dgrams 8 -min-qps 600000 -max-syscalls-per-query 0.25 -max-allocs-per-op 0 -json BENCH_timeserve.json

# campaign-smoke runs two 100-node campaign cells (churn + drift outliers);
# each self-gates on zero group-clock regressions, zero staleness-bound
# violations and bounded reconvergence. Deterministic: same seed, same JSON.
campaign-smoke:
	./pinned.sh BENCH_campaign_smoke.json $(GO) run ./cmd/ctscampaign -scenarios churn-storm,slow-clocks -nodes 100 -json BENCH_campaign_smoke.json

# campaign sweeps the full builtin scenario catalog and writes plot-ready
# BENCH_campaign.json + BENCH_campaign.csv (see EXPERIMENTS.md).
campaign:
	$(GO) run ./cmd/ctscampaign -json BENCH_campaign.json -csv BENCH_campaign.csv

# federation-smoke runs the multi-group federation sweep (E17): line
# topologies at 2/4/8 groups plus an inter-group sever/heal cell. Every cell
# self-gates — zero regressions, zero cross-group staleness violations, zero
# monotonicity fixes, seam skew under the ceiling, reconvergence in time.
# Writes BENCH_federation.json.
federation-smoke:
	./pinned.sh BENCH_federation.json $(GO) run ./cmd/ctsbench -exp federation -out .
