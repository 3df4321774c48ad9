#!/bin/sh
# CI gate: formatting, vet, the project linter, build, race-enabled tests.
# Same steps as `make check`, runnable where make is absent.
set -eu

cd "$(dirname "$0")"

echo "== gofmt =="
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:"
	echo "$unformatted"
	exit 1
fi

echo "== go vet =="
go vet ./...

# ctslint always runs every rule (DESIGN.md §8; `make lint-ledger` shows
# what each one catches that no other step here does); -v records per-rule
# wall time in the CI log. Baseline justifications are enforced by the
# lint.allow parser itself (non-trivially short, stale entries fail), so a
# bare `# why` can't slip through review.
echo "== ctslint =="
go run ./cmd/ctslint -v

echo "== one assembly path =="
# A replica is wired in internal/node and nowhere else (DESIGN.md §13): no
# other non-test Go outside bench/ may call the layer constructors.
if grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=node --exclude-dir=bench \
	'(replication|core|federation)\.New\(|\.EnableLease\(|timeserve\.Start\(' .; then
	echo "replica wiring outside internal/node (see above)"
	exit 1
fi

echo "== go build =="
go build ./...

echo "== go test -race =="
go test -race -count=1 ./...

echo "== go test -race (experiments under -orderer=seq) =="
# The experiment suite reruns over the leader-sequencer orderer; tests that
# pin Totem wire behavior (token timing, suppression counts, rotation)
# skip themselves via totemOnly.
go test -race -count=1 ./internal/experiment -orderer=seq

echo "== go test -race (orderer suites over poisoned simnet deliveries) =="
# simnet reuses a datagram's bytes once its receiver returns; this build
# scribbles over them at that point, so a receiver that kept the payload
# slice reads garbage (and, from another goroutine, races).
go test -race -count=1 -tags simnetpoison ./internal/simnet ./internal/totem ./internal/order

echo "== fuzz the timeserve decoders =="
# Both decoders face the socket: ten seconds of coverage-guided input each,
# on top of the committed seed corpus in internal/timeserve/testdata/fuzz.
go test -run '^$' -fuzz '^FuzzParseRequest$' -fuzztime 10s ./internal/timeserve
go test -run '^$' -fuzz '^FuzzParseResponse$' -fuzztime 10s ./internal/timeserve

echo "== simulator hot-path smoke =="
# One Post through the kernel's same-instant lane, one typed delivery
# through its heap, one simnet datagram from Send to receiver, one token
# rotation of a 3-member Totem ring carrying a safe message, one
# 1000-processor restart wave through the gcs group tables (DESIGN.md §6),
# and one entry through a 100-member seq leader's acks (DESIGN.md §10);
# each benchmark's setup and one iteration must run.
go test -run '^$' -bench 'KernelPostStep|KernelDeliverStep|SendDeliver|TotemTokenVisit|ReannounceWave1000|SeqLeaderAcks100' -benchtime 1x ./internal/sim ./internal/simnet ./internal/totem ./internal/gcs ./internal/order

echo "== ctsbench every experiment (writes nothing) =="
# Every ctsbench entry at its scaled size, gates included; the pinned steps
# below rerun the ones whose outputs are committed.
go run ./cmd/ctsbench -exp all -out ""

# The four virtual-time outputs below are regenerated through pinned.sh,
# which fails with the diff if the committed file moved.
echo "== ctsbench fig5 (BENCH_fig5.json) =="
./pinned.sh BENCH_fig5.json go run ./cmd/ctsbench -exp fig5 -out .

echo "== ctsbench fig5concurrent (BENCH_fig5_concurrent.json) =="
# Self-gating: exits nonzero unless concurrent readers coalesced rounds and
# their mean per-read overhead is at most half the single-reader overhead.
./pinned.sh BENCH_fig5_concurrent.json go run ./cmd/ctsbench -exp fig5concurrent -out .

echo "== ctsload smoke: lease invariants under race (BENCH_timeserve_race.json) =="
go run -race ./cmd/ctsload -inprocess -duration 5s -min-qps 100000 -json BENCH_timeserve_race.json

echo "== ctsload batched kernel I/O (BENCH_timeserve.json) =="
# Plain-mode run over the recvmmsg/sendmmsg path with 8-datagram bursts;
# gates throughput, server syscalls per query, and allocations per batched
# serve cycle.
go run ./cmd/ctsload -inprocess -duration 5s -dgrams 8 -min-qps 600000 -max-syscalls-per-query 0.25 -max-allocs-per-op 0 -json BENCH_timeserve.json

echo "== ctsload forced-sequential fallback (-serve-io seq) =="
# Batching force-disabled end to end: the sequential path must still hold
# the invariants and meaningful throughput.
go run ./cmd/ctsload -inprocess -duration 2s -dgrams 4 -serve-io seq -min-qps 100000 -json ""

echo "== ctscampaign smoke (BENCH_campaign_smoke.json) =="
# Two 100-node campaign cells, each self-gating on zero group-clock
# regressions, zero staleness-bound violations and bounded reconvergence.
./pinned.sh BENCH_campaign_smoke.json go run ./cmd/ctscampaign -scenarios churn-storm,slow-clocks -nodes 100 -json BENCH_campaign_smoke.json

echo "== ctsbench federation sweep (BENCH_federation.json) =="
# Multi-group federation (E17): line topologies at 2/4/8 groups plus an
# inter-group sever/heal cell. Self-gating — zero regressions, zero
# cross-group staleness violations, seam skew under the ceiling.
./pinned.sh BENCH_federation.json go run ./cmd/ctsbench -exp federation -out .

echo "== ctsload federated migrating clients =="
# Two federated in-process groups; each worker migrates across them every
# exchange, checking the global staleness floor and the (group, node)-keyed
# regression floors end to end over real UDP.
go run ./cmd/ctsload -inprocess -duration 2s -fed-groups 2 -min-qps 100000 -json ""

echo "CI checks passed."
