GO ?= go

# ci.sh holds the one list of CI steps. `make check` runs all of them in
# order; every other target below but test, ledger, churn-sweep and cover runs its
# namesake step (race also runs the -orderer=seq and simnetpoison reruns).
# See ci.sh for what each step checks.
STEPS := fmt vet lint assembly build allocs race-seq race-poison fuzz sim-smoke \
	bench-all bench bench-concurrent loadtest campaign federation-smoke

.PHONY: check test race ledger churn-sweep cover $(STEPS)

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
# 99), once under Totem and once under the sequencer (-orderer=seq), and
# prints each failing seed with its first failure (the client oracle's first
# witness, then the round oracle's) and its fault schedule, then the
# package's ok/FAIL line. It reports and does not fail: seeds in this range
# fail today (ROADMAP item 14).
churn-sweep:
	@for o in totem seq; do \
		echo "== churn sweep -orderer=$$o =="; \
		$(GO) test -count=1 -run '^TestChurnStress$$' ./internal/experiment -churn-seeds=80-139 -orderer=$$o 2>&1 | \
			grep -E -A3 -- '--- FAIL: TestChurnStress/|^(ok|FAIL)[[:space:]]' || true; \
	done

# cover runs tier-1 with statement coverage of every package but bench,
# sums each block's counts across the test binaries, and prints the total
# and every function outside cmd/ and examples/ that no test runs (ROADMAP
# item 31). It reports and does not fail.
cover:
	@prof=$$(mktemp -d) && trap 'rm -rf "$$prof"' EXIT && \
	$(GO) test -count=1 -coverpkg=$$($(GO) list ./... | grep -vx cts/bench | paste -sd, -) \
		-coverprofile="$$prof/raw" ./... | grep -Ev '^ok|coverage: ' || true; \
	awk 'NR == 1 { print; next } !($$1 in n) { k[++m] = $$1 } { n[$$1] += $$3; s[$$1] = $$2 } \
		END { for (i = 1; i <= m; i++) print k[i], s[k[i]], n[k[i]] }' "$$prof/raw" >"$$prof/merged" && \
	$(GO) tool cover -func="$$prof/merged" >"$$prof/func" && \
	grep '^total:' "$$prof/func" && \
	awk '$$NF == "0.0%" && $$1 !~ /^cts\/(cmd|examples)\// { z++; print } END { print z + 0, "functions never run" }' "$$prof/func"
