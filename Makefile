GO ?= go

# ci.sh holds the one list of CI steps. `make check` runs all of them in
# order; every other target below but test and lint-ledger runs its namesake
# step (race also runs the -orderer=seq and simnetpoison reruns). See ci.sh
# for what each step checks.
STEPS := fmt vet lint assembly build allocs race-seq race-poison fuzz sim-smoke \
	bench-all bench bench-concurrent loadtest campaign federation-smoke

.PHONY: check test race lint-ledger $(STEPS)

check:
	./ci.sh

$(STEPS):
	./ci.sh $@

race:
	./ci.sh race race-seq race-poison

test:
	$(GO) test ./...

# lint-ledger reruns the slow columns of the mutation ledger (DESIGN.md §8):
# every seeded bug of internal/lint's ledger goes into a copy of the module,
# which then runs build+vet, the tier-1 tests with and without -race, and the
# pinned outputs. It prints the table DESIGN.md §8 carries and fails if
# some rule has no seeded bug that only the rule catches. Slow: minutes per
# row.
lint-ledger:
	$(GO) test -tags ledger -run '^TestMutationLedgerColumns$$' -v -timeout 0 ./internal/lint
