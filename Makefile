GO ?= go

.PHONY: check fmt vet lint build test race bench bench-smoke bench-diff soak soak-smoke fuzz fuzz-smoke

# check is the CI gate: formatting, vet, the repo-invariant lint, build, and
# the race-enabled tests.
check: fmt vet lint build race

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# vet runs with the repo's format-wrapper and must-use-result knowledge.
# -printf.funcs ADDS to vet's defaults; -unusedresult.funcs REPLACES them,
# so the stdlib defaults are restated before the repo's pure functions.
VET_PRINTF_FUNCS = logf,protoErr,Reportf
VET_UNUSEDRESULT_STD = context.WithCancel,context.WithDeadline,context.WithTimeout,context.WithValue,errors.New,fmt.Errorf,fmt.Sprint,fmt.Sprintf,slices.Clip,slices.Compact,slices.CompactFunc,slices.Delete,slices.DeleteFunc,slices.Grow,slices.Insert,slices.Replace,sort.Reverse
VET_UNUSEDRESULT_REPRO = repro/internal/rtr.SerialLess,repro/internal/rtr.SerialNewer,repro/internal/rtr.SerialAdvance,repro/internal/rov.NewIndex,repro/internal/rov.NewCompactIndex,repro/internal/rov.CompactFromIndex,repro/internal/rov.Diff
vet:
	$(GO) vet -printf.funcs=$(VET_PRINTF_FUNCS) \
		-unusedresult.funcs=$(VET_UNUSEDRESULT_STD),$(VET_UNUSEDRESULT_REPRO) ./...

# lint runs reprolint, the in-tree static-analysis suite for the invariants
# the hot paths depend on (see cmd/reprolint and the README). Zero
# unsuppressed findings is the bar; suppress with
# //lint:ignore <check> <reason>.
lint:
	$(GO) run ./cmd/reprolint ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# BENCH_JSON is where bench archives its parsed results (committed to the
# repo so the perf trajectory across PRs is tracked in-tree).
BENCH_JSON ?= BENCH_PR15.json

# bench runs the in-package core, rov, and rtr benchmarks plus the
# paper-evaluation benches; -count=1 defeats test caching so numbers are
# always fresh. A moderate rtrload soak rides along so the archive carries
# end-to-end serving latency next to the micro numbers (the full-scale soak
# is the separate `make soak`). The raw output is parsed into $(BENCH_JSON)
# by cmd/benchjson.
# The rider soak is sized for the single-CPU dev container: 500 pollers at
# 250ms churn is ~2000 incremental syncs/s, which one core carries without
# starving pollers into the server's (correct) overload shedding; crank the
# knobs on real hardware.
RTRLOAD_CLIENTS ?= 500
RTRLOAD_DURATION ?= 10s
RTRLOAD_INTERVAL ?= 250ms
RTRLOAD_VRPS ?= 20000
bench:
	@rm -f bench.out
	$(GO) test -run='^$$' -bench=. -benchmem -count=1 ./internal/core/ ./internal/rov/ ./internal/rtr/ . > bench.out 2>&1; \
		status=$$?; cat bench.out; \
		if [ $$status -ne 0 ]; then rm -f bench.out; exit $$status; fi
	$(GO) run ./cmd/rtrload -clients $(RTRLOAD_CLIENTS) -duration $(RTRLOAD_DURATION) \
		-vrps $(RTRLOAD_VRPS) -churn 64 -interval $(RTRLOAD_INTERVAL) -bench-out bench.out
	$(GO) run ./cmd/benchjson -in bench.out -out $(BENCH_JSON)
	@rm -f bench.out

# soak is the full router-population acceptance run: thousands of pollers,
# sustained churn, a handful of wedged routers the cache must shed without
# the publish path noticing. soak-smoke is the small configuration CI runs
# on every push. Both fail unless every wedged router was shed and no poller
# was.
soak:
	$(GO) run ./cmd/rtrload -clients 2000 -duration 60s -vrps 50000 -churn 64 \
		-interval 1s -stall 8 -write-timeout 5s

soak-smoke:
	$(GO) run ./cmd/rtrload -clients 200 -duration 10s -vrps 10000 -churn 32 \
		-interval 100ms -stall 2 -write-timeout 2s

# bench-smoke is the quick pipeline-regression gate CI runs: the core and rov
# micro benches and the headline compression bench at a handful of iterations.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=10x -benchmem -count=1 ./internal/core/ ./internal/rov/
	$(GO) test -run='^$$' -bench='^(BenchmarkFigure2|BenchmarkCompressToday)$$' -benchtime=3x -benchmem -count=1 .

# bench-diff compares two archived bench runs (the per-PR BENCH_*.json files)
# and prints per-benchmark ns/op, B/op, and allocs/op deltas; a regression
# beyond the per-metric threshold fails the target, so the in-repo trend
# doubles as a review gate. Wall-clock (ns/op) gets a generous default that
# sits above the noise floor of the single-CPU dev container (tens of
# percent between runs even on untouched code) — tighten it on quiet
# hardware: make bench-diff BENCH_THRESHOLD=10. B/op and allocs/op are exact
# and gated tightly by BENCH_THRESHOLD_MEM, so allocation regressions fail
# CI even where wall-clock noise would hide them — except for the
# benchmarks listed in BENCH_MEM_NOISY, whose allocation profile is
# scheduler-dependent (the live-index delta benches amortize the
# background compactor's O(table) rebuild allocations into whatever
# iteration count the run happened to draw, so B/op swings run to run on
# identical code); those are gated at the wall-clock threshold instead.
# The live-index delta benches are additionally BENCH_TIME_NOISY: their
# timed loop races the asynchronous compactor, so whether a rebuild lands
# inside the window is a scheduler coin flip and ns/op on identical code
# spans well past the ordinary threshold (measured: 2.9–6.3 µs for the same
# binary); they get the looser BENCH_THRESHOLD_TIME_NOISY gate.
BENCH_OLD ?= BENCH_PR10.json
BENCH_NEW ?= $(BENCH_JSON)
BENCH_THRESHOLD ?= 50
BENCH_THRESHOLD_MEM ?= 10
BENCH_THRESHOLD_TIME_NOISY ?= 200
BENCH_MEM_NOISY ?= repro.BenchmarkLiveIndexDelta/*,repro/internal/rov.BenchmarkLiveApply
BENCH_TIME_NOISY ?= repro.BenchmarkLiveIndexDelta/*,repro/internal/rov.BenchmarkLiveApply,repro/cmd/rtrload.BenchmarkRTRLoad/*
bench-diff:
	$(GO) run ./cmd/benchjson -diff -threshold $(BENCH_THRESHOLD) \
		-threshold-bytes $(BENCH_THRESHOLD_MEM) -threshold-allocs $(BENCH_THRESHOLD_MEM) \
		-mem-noisy '$(BENCH_MEM_NOISY)' \
		-time-noisy '$(BENCH_TIME_NOISY)' -threshold-time-noisy $(BENCH_THRESHOLD_TIME_NOISY) \
		$(BENCH_OLD) $(BENCH_NEW)

# fuzz runs every fuzz target in the tree for FUZZTIME each (go test -fuzz
# takes one target and one package at a time); fuzz-smoke is the short
# configuration CI runs on every push.
FUZZTIME ?= 30s
FUZZ_TARGETS = core/FuzzTrieVsReference core/FuzzCompressVsTrie rov/FuzzIndex rov/FuzzCompactIndex rov/FuzzDiff \
	rtr/FuzzReadPDU bgp/FuzzReadMessage bgp/FuzzReadMRT prefix/FuzzParse
fuzz:
	@for t in $(FUZZ_TARGETS); do \
		echo "fuzz $$t ($(FUZZTIME))"; \
		$(GO) test -run='^$$' -fuzz="^$${t#*/}$$" -fuzztime=$(FUZZTIME) ./internal/$${t%/*}/ || exit 1; \
	done

fuzz-smoke:
	$(MAKE) fuzz FUZZTIME=5s
