GO ?= go

.PHONY: check fmt vet lint build test race allocs bench bench-smoke soak soak-smoke fuzz fuzz-smoke

# check is the CI gate: formatting, vet, the repo-invariant lint, build, the
# race-enabled tests, and the allocation gates the race build leaves out.
check: fmt vet lint build race allocs

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
VET_UNUSEDRESULT_REPRO = repro/internal/rtr.SerialLess,repro/internal/rtr.SerialNewer,repro/internal/rtr.SerialAdvance,repro/internal/rtr.appendPDU,repro/internal/rtr.appendHeader,repro/internal/rtr.appendPrefix,repro/internal/rov.NewIndex,repro/internal/rov.NewCompactIndex,repro/internal/rov.CompactFromIndex,repro/internal/rov.Diff,repro/internal/rpki.NextGroup,repro/internal/rpki.SortedSet
vet:
	$(GO) vet -printf.funcs=$(VET_PRINTF_FUNCS) \
		-unusedresult.funcs=$(VET_UNUSEDRESULT_STD),$(VET_UNUSEDRESULT_REPRO) ./...

# lint runs reprolint, the in-tree static analysis of the RTR and ROV lock
# discipline — nothing blocks under a mutex, one order for every pair — which
# no test sees (see cmd/reprolint and the README). Zero unsuppressed findings
# is the bar; suppress with //lint:ignore <check> <reason>.
lint:
	$(GO) run ./cmd/reprolint ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs with GOEXPERIMENT=synctest, so internal/rtr's testing/synctest
# bubbles run in-process under -race (without it, rtr.TestVirtualTime runs
# them in a child go test). The experiment, the build tags and
# TestVirtualTime go once the toolchain is Go 1.25 or later, where
# synctest.Test is GA.
race:
	GOEXPERIMENT=synctest $(GO) test -race ./...

# allocs runs the exact allocation gates: they count with
# testing.AllocsPerRun, which race instrumentation inflates, so their files
# are //go:build !race and the race target never compiles them. A gate is
# selected by its name — Test…Allocs, or core's TestAllocCeilings — in any
# package, so a new one needs no edit here.
allocs:
	$(GO) test -count=1 -run 'Allocs$$|^TestAllocCeilings$$' ./...

# bench prints the in-package bgp, core, rov, and rtr micro benchmarks plus the
# paper-evaluation benches; -count=1 defeats test caching so numbers are
# always fresh. Performance claims are made with the repo's benchmark
# (go run ./bench, see BENCHMARK.json), not with this view.
bench:
	$(GO) test -run='^$$' -bench=. -benchmem -count=1 ./internal/bgp/ ./internal/core/ ./internal/rov/ ./internal/rtr/ .

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
# micro benches, the paper-scale BGP table build and, at a handful of
# iterations on today's table, the headline compression bench, the verifier
# that proves its output, the cold path at real size — a full response, a
# router's reset, a follower's cold start — and one publish answered to 2,000
# routers one serial behind.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=10x -benchmem -count=1 ./internal/bgp/ ./internal/core/ ./internal/rov/
	$(GO) test -run='^$$' -bench='^(BenchmarkFigure2|BenchmarkCompressToday|BenchmarkSemanticEqualVerifier)$$' -benchtime=3x -benchmem -count=1 .
	$(GO) test -run='^$$' -bench='^(BenchmarkSendFull|BenchmarkClientReset|BenchmarkColdStart|BenchmarkSerialFanout)$$' -benchtime=3x -benchmem -count=1 ./internal/rtr/

# fuzz runs all thirteen fuzz targets in the tree for FUZZTIME each (go test -fuzz
# takes one target and one package at a time); fuzz-smoke is the short
# configuration CI runs on every push.
FUZZTIME ?= 30s
FUZZ_TARGETS = core/FuzzTrieVsReference core/FuzzCompressVsTrie core/FuzzSemanticEqual core/FuzzSemanticEqualDeep rov/FuzzIndex rov/FuzzCompactIndex rov/FuzzDiff rov/FuzzLiveOverlay \
	rtr/FuzzReadPDU bgp/FuzzReadMRT bgp/FuzzNewTable prefix/FuzzParse rpkix/FuzzParseSignedObject
fuzz:
	@for t in $(FUZZ_TARGETS); do \
		echo "fuzz $$t ($(FUZZTIME))"; \
		$(GO) test -run='^$$' -fuzz="^$${t#*/}$$" -fuzztime=$(FUZZTIME) ./internal/$${t%/*}/ || exit 1; \
	done

fuzz-smoke:
	$(MAKE) fuzz FUZZTIME=5s
