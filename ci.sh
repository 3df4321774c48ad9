#!/bin/sh
# CI gate, and the one list of its steps. `./ci.sh` runs every step in
# order; `./ci.sh STEP...` runs the named ones (each Makefile target runs its
# namesake step, and `make check` runs them all).
set -eu

cd "$(dirname "$0")"

steps="fmt vet lint assembly build race allocs race-seq race-poison fuzz sim-smoke
bench-all bench bench-concurrent loadtest campaign federation-smoke"

step() {
	case "$1" in
	fmt)
		echo "== gofmt =="
		unformatted="$(gofmt -l .)"
		if [ -n "$unformatted" ]; then
			echo "gofmt needed on:"
			echo "$unformatted"
			exit 1
		fi
		;;
	vet)
		echo "== go vet =="
		go vet ./...
		;;
	lint)
		# ctslint always runs every rule (DESIGN.md §8; `make ledger`
		# shows what each one catches that no other step here does); -v
		# records per-rule wall time in the CI log. Baseline justifications
		# are enforced by the lint.allow parser itself (non-trivially short,
		# stale entries fail), so a bare `# why` can't slip through review.
		echo "== ctslint =="
		go run ./cmd/ctslint -v
		;;
	assembly)
		# A replica is wired in internal/node and nowhere else (DESIGN.md
		# §13): no other non-test Go outside bench/ may call the layer
		# constructors.
		echo "== one assembly path =="
		if grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=node --exclude-dir=bench \
			'(replication|core|federation)\.New\(|\.EnableLease\(|timeserve\.Start\(' .; then
			echo "replica wiring outside internal/node (see above)"
			exit 1
		fi
		;;
	build)
		# The simulated examples run in virtual time (seconds of wall
		# clock); each exits non-zero when its own check fails.
		echo "== go build, run the simulated examples =="
		go build ./...
		# Nothing else compiles the !linux stubs (mmsg_other.go,
		# reuseport_other.go); vet them for one non-Linux target.
		GOOS=darwin GOARCH=arm64 go vet ./internal/timeserve
		for ex in quickstart multigroup failover recovery driftcontrol; do
			go run ./examples/$ex >/dev/null
		done
		;;
	race)
		# Each race step's -timeout stays under the mutation ledger's
		# 5-minute column limit, so a hung test fails with its name printed.
		echo "== go test -race =="
		go test -race -count=1 -timeout 4m ./...
		;;
	allocs)
		# The zero-allocation tests skip under the race detector, which
		# inflates allocation counts; this plain run is where they gate the
		# hot paths.
		echo "== allocation gates (no -race) =="
		go test -count=1 -run 'AllocatesNothing|AllocFree' ./internal/sim ./internal/simnet ./internal/gcs ./internal/core ./internal/timeserve ./internal/invariant
		;;
	race-seq)
		# The experiment suite reruns over the leader-sequencer orderer;
		# tests that pin Totem wire behavior (token timing, suppression
		# counts, rotation) skip themselves via totemOnly.
		echo "== go test -race (experiments under -orderer=seq) =="
		go test -race -count=1 -timeout 4m ./internal/experiment -orderer=seq
		;;
	race-poison)
		# simnet reuses a datagram's bytes once its receiver returns; this
		# build scribbles over them at that point, so a receiver that kept
		# the payload slice reads garbage (and, from another goroutine,
		# races).
		echo "== go test -race (orderer suites over poisoned simnet deliveries) =="
		go test -race -count=1 -timeout 4m -tags simnetpoison ./internal/simnet ./internal/order
		;;
	fuzz)
		# The timeserve decoders, the two wire orderers' packet decoders
		# (Totem, leader-sequencer), the protocol envelope and its payloads,
		# the federation summary and the gcs envelopes face the socket, the
		# CCS payload and checkpoint state decoders stand between a
		# delivered message and core's round state, and the campaign matrix
		# and federation topology decoders face user files: ten seconds of
		# coverage-guided input each, on top of the committed seed corpora
		# under each package's testdata/fuzz.
		echo "== fuzz the decoders =="
		go test -run '^$' -fuzz '^FuzzParseRequest$' -fuzztime 10s ./internal/timeserve
		go test -run '^$' -fuzz '^FuzzParseResponse$' -fuzztime 10s ./internal/timeserve
		go test -run '^$' -fuzz '^FuzzAnswerDatagram$' -fuzztime 10s ./internal/timeserve
		go test -run '^$' -fuzz '^FuzzTotemDecode$' -fuzztime 10s ./internal/order
		go test -run '^$' -fuzz '^FuzzSeqDecode$' -fuzztime 10s ./internal/order
		go test -run '^$' -fuzz '^FuzzCCSDecode$' -fuzztime 10s ./internal/core
		go test -run '^$' -fuzz '^FuzzParseMatrix$' -fuzztime 10s ./internal/campaign
		go test -run '^$' -fuzz '^FuzzMessageDecode$' -fuzztime 10s ./internal/wire
		go test -run '^$' -fuzz '^FuzzGroupSummaryDecode$' -fuzztime 10s ./internal/wire
		go test -run '^$' -fuzz '^FuzzDeliver$' -fuzztime 10s ./internal/gcs
		go test -run '^$' -fuzz '^FuzzParseTopology$' -fuzztime 10s ./internal/federation
		;;
	sim-smoke)
		# One Post through the kernel's same-instant lane, one typed
		# delivery through its heap, one simnet datagram from Send to
		# receiver, one token rotation of a 3-member Totem ring carrying a
		# safe message, one 1000-processor restart wave through the gcs
		# group tables (DESIGN.md §6), and one entry through a 100-member
		# seq leader's acks (DESIGN.md §10); each benchmark's setup and one
		# iteration must run.
		echo "== simulator hot-path smoke =="
		go test -run '^$' -bench 'KernelPostStep|KernelDeliverStep|SendDeliver|TotemTokenVisit|ReannounceWave1000|SeqLeaderAcks100' -benchtime 1x ./internal/sim ./internal/simnet ./internal/gcs ./internal/order
		;;
	bench-all)
		# Every ctsbench entry at its scaled size, gates included; the
		# pinned steps below rerun the ones whose outputs are committed.
		echo "== ctsbench every experiment (writes nothing) =="
		go run ./cmd/ctsbench -exp all -out ""
		;;
	# The virtual-time outputs of the steps below are regenerated through
	# pinned.sh, which fails with the diff if the committed file moved.
	bench)
		# -out . also writes the round trace. At 4.4 MB it is not committed
		# (.gitignore); its SHA-256 digest is, and is pinned instead.
		echo "== ctsbench fig5 (BENCH_fig5.json, fig5.trace.sha256) =="
		./pinned.sh fig5.trace.sha256 ./pinned.sh BENCH_fig5.json \
			sh -c 'go run ./cmd/ctsbench -exp fig5 -out . && sha256sum fig5.trace.jsonl >fig5.trace.sha256'
		;;
	bench-concurrent)
		# Self-gating: exits nonzero unless concurrent readers coalesced
		# rounds and their mean per-read overhead is at most half the
		# single-reader overhead.
		echo "== ctsbench fig5concurrent (BENCH_fig5_concurrent.json) =="
		./pinned.sh BENCH_fig5_concurrent.json go run ./cmd/ctsbench -exp fig5concurrent -out .
		;;
	loadtest)
		echo "== ctsload smoke: lease invariants under race =="
		go run -race ./cmd/ctsload -inprocess -duration 5s -min-qps 100000

		# Plain-mode run over the recvmmsg/sendmmsg path with 8-datagram
		# bursts; gates throughput and server syscalls per query (the serve
		# cycle's zero allocations are gated by TestServeBatchAllocFree in
		# the allocs step).
		echo "== ctsload batched kernel I/O =="
		go run ./cmd/ctsload -inprocess -duration 5s -dgrams 8 -min-qps 600000 -max-syscalls-per-query 0.25

		# Batching force-disabled end to end: the sequential path must
		# still hold the invariants and meaningful throughput.
		echo "== ctsload forced-sequential fallback (-serve-io seq) =="
		go run ./cmd/ctsload -inprocess -duration 2s -dgrams 4 -serve-io seq -min-qps 100000
		;;
	campaign)
		# Every builtin scenario at 100 nodes (wire-orderer scenarios
		# clamped to their max_nodes, recorded per cell), each self-gating
		# on zero group-clock regressions, zero staleness-bound violations
		# and bounded reconvergence.
		echo "== ctscampaign builtin catalog (BENCH_campaign.json, BENCH_campaign.csv) =="
		./pinned.sh BENCH_campaign.csv ./pinned.sh BENCH_campaign.json go run ./cmd/ctscampaign -json BENCH_campaign.json -csv BENCH_campaign.csv
		;;
	federation-smoke)
		# Multi-group federation (E17): line topologies at 2/4/8 groups plus
		# an inter-group sever/heal cell. Self-gating — zero regressions,
		# zero cross-group staleness violations, seam skew under the ceiling.
		echo "== ctsbench federation sweep (BENCH_federation.json) =="
		./pinned.sh BENCH_federation.json go run ./cmd/ctsbench -exp federation -out .

		# Two federated in-process groups; each worker migrates across them
		# every exchange, checking the global staleness floor and the
		# (group, node)-keyed regression floors end to end over real UDP.
		echo "== ctsload federated migrating clients =="
		go run ./cmd/ctsload -inprocess -duration 2s -fed-groups 2 -min-qps 100000
		;;
	*)
		echo "ci.sh: unknown step '$1'; steps: $steps" >&2
		exit 2
		;;
	esac
}

if [ $# -eq 0 ]; then
	# shellcheck disable=SC2086 # word-split the step list
	set -- $steps
	all=1
fi
for s in "$@"; do
	step "$s"
done
if [ -n "${all:-}" ]; then
	echo "CI checks passed."
fi
