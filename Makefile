GO ?= go

.PHONY: build test vet race chaos flake fuzz-short bench alloc-baseline sgfs-vet alloc-budget check

build:
	$(GO) build ./...

test:
	$(GO) test -timeout 600s ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race -count=1 -timeout 600s ./...

# Fault-injection suite: link cuts, stalls, and dial flakiness against
# the reconnecting channel, the RPC layer, and the proxy stack
# (including the mid-workload link-killer scenario).
chaos:
	$(GO) test -race -count=1 -timeout 300s -run 'Chaos|Fault|Reconnect|MidStream|TemporaryAccept|Recovery' \
		./internal/netem/ ./internal/oncrpc/ ./internal/proxy/

# Flake census: run the proxy, oncrpc and netem suites FLAKE_N times
# under -race and print failed/total for every test (or subtest) that
# failed at least once, then each package's final status line. It is
# not part of `check`: a known flake would turn CI red. FLAKE_RUN
# narrows it to matching tests, e.g.
#   make flake FLAKE_N=200 FLAKE_RUN=TestReplicatedEndToEnd
FLAKE_N ?= 20
FLAKE_RUN ?= .
flake:
	@$(GO) test -race -v -count=$(FLAKE_N) -timeout 0 -run '$(FLAKE_RUN)' \
		./internal/proxy/ ./internal/oncrpc/ ./internal/netem/ 2>&1 | \
	awk '/^ *--- (PASS|FAIL|SKIP): / { total[$$3]++; if ($$2 == "FAIL:") failed[$$3]++ } \
		/^(ok|FAIL|panic:)[ \t]/ { status[++n] = $$0 } \
		END { printf "flake census: %d run(s) of each test\n", $(FLAKE_N); \
			for (t in failed) { printf "  %s: %d/%d failed\n", t, failed[t], total[t]; bad++ } \
			if (!bad) print "  no failures"; \
			for (i = 1; i <= n; i++) print "  " status[i] }'

# Short fuzzing pass: every Fuzz* target in the module runs for
# FUZZTIME (default ~10s). This catches decoder panics and round-trip
# regressions cheaply on every merge; long campaigns are run manually
# with a bigger -fuzztime. `go test -fuzz` takes one target per
# invocation, hence the loop.
FUZZTIME ?= 10s
fuzz-short:
	@set -e; \
	for pkg in $$($(GO) list ./...); do \
		for target in $$($(GO) test -list '^Fuzz' $$pkg 2>/dev/null | grep '^Fuzz' || true); do \
			echo "=== fuzz $$pkg $$target ($(FUZZTIME))"; \
			$(GO) test -run '^$$' -fuzz "^$$target$$" -fuzztime $(FUZZTIME) $$pkg; \
		done; \
	done

# Data-path microbenchmarks: oncrpc call-path and securechan
# seal/open allocations, plus the WAN flush-scaling sweep (pipeline
# window 1/2/4/8 deep under an emulated 20 ms RTT). Results land in BENCH_5.json;
# BENCH_6.json pairs the allocation benchmarks with the static
# alloc-hotpath census totals (runtime allocs/op vs the budgeted heap
# sites). CI runs at -benchtime 1x and archives both files, full runs
# use e.g. BENCHTIME=100x. The paper-figure suite stays in
# cmd/sgfs-bench.
BENCHTIME ?= 1x
# BENCH7FLAGS scales the async-pipeline benchmark; CI overrides it to
# a smoke scale, full runs use the defaults.
BENCH7FLAGS ?=
bench:
	$(GO) run ./cmd/sgfs-bench5 -benchtime $(BENCHTIME) -out BENCH_5.json
	$(GO) run ./cmd/sgfs-bench6 -benchtime $(BENCHTIME) -out BENCH_6.json
	$(GO) run ./cmd/sgfs-bench7 $(BENCH7FLAGS) -out BENCH_7.json

# Recompute the hot-path alloc census and refresh the committed
# baseline the CI alloc budget compares against.
alloc-baseline:
	$(GO) run ./cmd/sgfs-vet -alloc-census > .sgfsvet-allocs.json

# Repo-specific analyzers (xdr-symmetry, lock-over-io, lockset-race,
# pool-lifecycle, atomic-misuse, swallowed-error, lock-order,
# ctx-deadline, goroutine-leak, replay-table-sync, secret-flow,
# unbounded-alloc, weak-rand, resource-leak, retry-safety,
# alloc-hotpath). Fails on any finding not in .sgfsvet-ignore — and
# on stale allowlist entries (exit 2); see DESIGN.md. CI also
# archives the -json report.
sgfs-vet:
	$(GO) run ./cmd/sgfs-vet -all ./...

# The alloc budget gate: the fresh hot-path census must fit the
# committed .sgfsvet-allocs.json baseline (see `make alloc-baseline`).
alloc-budget:
	$(GO) run ./cmd/sgfs-vet -alloc-budget

# The CI gate: everything that must be green before merging.
check: build vet race chaos sgfs-vet alloc-budget
