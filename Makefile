GO ?= go

# ci.sh holds the one list of CI steps. `make check` runs all of them in
# order; every other target below but test, ledger and churn-sweep runs its
# namesake step (race also runs the -orderer=seq and simnetpoison reruns).
# See ci.sh for what each step checks.
STEPS := fmt vet lint assembly build allocs race-seq race-poison fuzz sim-smoke \
	bench-all bench bench-concurrent loadtest campaign federation-smoke

.PHONY: check test race ledger churn-sweep $(STEPS)

check:
	./ci.sh

$(STEPS):
	./ci.sh $@

race:
	./ci.sh race race-seq race-poison

test:
	$(GO) test ./...

# ledger runs the mutation ledger's slow half (internal/ledger, DESIGN.md §5
# and §8): every seeded bug of both tables, lint rules and protocol
# mechanisms, goes into a copy of the module, which then runs tier-1 and
# every ci.sh step but fmt. It prints the two tables DESIGN.md carries. Slow:
# minutes per row, about two hours in all.
ledger:
	$(GO) test -tags ledger -run '^TestLedger$$' -v -timeout 0 ./internal/ledger

# churn-sweep runs TestChurnStress over seeds 80-139 (the committed seed is
# 99) and prints each failing seed with its first failure (the client
# oracle's first witness, then the round oracle's), then the package's
# ok/FAIL line. It reports and does not fail: seeds in this range fail today
# (ROADMAP item 14).
churn-sweep:
	$(GO) test -count=1 -run '^TestChurnStress$$' ./internal/experiment -churn-seeds=80-139 2>&1 | \
		grep -E -A2 -- '--- FAIL: TestChurnStress/|^(ok|FAIL)[[:space:]]' || true
