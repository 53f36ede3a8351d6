package main

import (
	"errors"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/rov"
	"repro/internal/rpki"
)

// validate_churn: the router's data plane. The router validates BGP routes
// in 8,192-route batches as fast as it can — first against a quiet table,
// then with an RTR delta applied between two batches whenever one is due, as
// a router with one core to spare for both would. The index's background
// compaction runs beside it either way.
//
// The table is today's (Table 1's status quo row, 39,949 → 33,615 PDUs), not
// the 730,007-PDU full-deployment one: a lookup in that index is four or five
// dependent cache and TLB misses (400 ns a route against 25 ns), so its speed
// is the speed of the host's memory system at that minute — the same binary
// on the same input measured 2.1 to 3.4 ms a batch in successive runs. The
// large index is still measured, one layer at a time, by the traced run's
// probes.

const (
	batchRoutes    = 8192
	churnRate      = 20 // deltas per second (open loop), churn phase
	churnDeltaVRPs = 64 // half withdrawn from the table, half newly announced
	checkRoutes    = 4096
	checkReference = 64
	recompactLimit = 3 * time.Second
)

// churnEnv is validate_churn's set-up product.
type churnEnv struct {
	live    *rov.LiveIndex
	base    *rpki.Set
	batches [][]rov.Route
	fresh   [][]rpki.VRP // per group: pool VRPs the churn announces
	victims [][]rpki.VRP // per group: table VRPs the churn withdraws
	applied int          // deltas applied so far
}

func (e *churnEnv) close() {}

func buildChurnEnv(cfg config) (*churnEnv, error) {
	d, pin := cfg.dataset(paperScale)
	compressed, res := core.Compress(d.VRPs, core.Options{})
	if err := pin.checkToday(res); err != nil {
		return nil, err
	}
	e := &churnEnv{live: rov.NewLiveIndex(compressed), base: compressed}

	bgp := d.Table.Routes()
	routes := make([]rov.Route, len(bgp))
	for i, r := range bgp {
		routes[i] = rov.Route{Prefix: r.Prefix, Origin: r.Origin}
	}
	cfg.rng(streamShuffle).Shuffle(len(routes), func(i, j int) { routes[i], routes[j] = routes[j], routes[i] })
	size := min(batchRoutes, len(routes))
	for at := 0; at+size <= len(routes); at += size {
		e.batches = append(e.batches, routes[at:at+size])
	}

	table := compressed.VRPs()
	half := min(churnDeltaVRPs/2, len(table)/churnGroups) // a -smoke table is too small for 64 × 32 victims
	if half == 0 {
		return nil, errors.New("validate_churn's table is too small to churn")
	}
	e.fresh = newVRPPool(d, cfg.rng(streamPool)).groups(churnGroups, half)
	perm := cfg.rng(streamPerturb).Perm(len(table))
	e.victims = make([][]rpki.VRP, churnGroups)
	for g := range e.victims {
		for _, i := range perm[g*half : (g+1)*half] {
			e.victims[g] = append(e.victims[g], table[i])
		}
	}
	return e, nil
}

// swapped reports whether group g currently has its victims withdrawn and
// its fresh VRPs announced, after n deltas.
func swapped(g, n int) bool {
	if n-1 < g {
		return false
	}
	last := (n-1-g)/churnGroups*churnGroups + g
	return (last/churnGroups)%2 == 0
}

// applyNext applies the next churn delta: on even passes group g's fresh
// VRPs replace its victims, on odd passes the victims come back.
func (e *churnEnv) applyNext(tr *tracer) time.Duration {
	g := e.applied % churnGroups
	announce, withdraw := e.fresh[g], e.victims[g]
	if (e.applied/churnGroups)%2 == 1 {
		announce, withdraw = withdraw, announce
	}
	start := time.Now()
	e.live.Apply(announce, withdraw)
	end := time.Now()
	tr.add("rov.live.apply", start, end, -1, int64(e.applied))
	e.applied++
	return end.Sub(start)
}

// tableNow is the table the index must hold after the deltas so far.
func (e *churnEnv) tableNow() *rpki.Set {
	gone := map[rpki.VRP]bool{}
	var vrps []rpki.VRP
	for g := 0; g < churnGroups; g++ {
		if swapped(g, e.applied) {
			for _, v := range e.victims[g] {
				gone[v] = true
			}
			vrps = append(vrps, e.fresh[g]...)
		}
	}
	for _, v := range e.base.VRPs() {
		if !gone[v] {
			vrps = append(vrps, v)
		}
	}
	return rpki.NewSet(vrps)
}

// churnStage is what one quiet + churn pass measured.
type churnStage struct {
	quiet, churn     []sample // per batch: latency in ms, stamped by start offset within its phase
	from             int64    // the quiet phase's start on the clock the stage was given; the churn phase follows it
	lenQuiet, lenCh  int64
	late             []time.Duration
	compactBatches   int // churn-phase batches that began with a compact snapshot published
	applyUs          []float64
	routesPerBatch   int
	validatedBatches int
}

// rate is the routes validated per second over one phase's batches.
func (s churnStage) rate(samples []sample, length int64, scale func(from, to int64) float64) segmented {
	return segmentRate(samples, length, 5, float64(s.routesPerBatch), scale)
}

// runChurnStage validates closed loop for dur: the first third against a
// quiet table, the rest with an open-loop schedule of churnRate deltas per
// second, each applied by the same goroutine as soon as the batch in flight
// when it fell due has finished — that wait is the delta's lateness. The
// phases and the schedule follow the wall clock; stamps are read from clk
// (nil: the wall clock again), which the loop also lets run its reference
// kernel between two batches.
func (e *churnEnv) runChurnStage(clk *refClock, dur time.Duration, tr *tracer) churnStage {
	st := churnStage{routesPerBatch: len(e.batches[0])}
	const interval = time.Second / churnRate
	start := time.Now()
	churnStart := start.Add(dur / 3)
	end := start.Add(dur)
	nextDue := churnStart
	phaseStart := clk.now() // of the phase in progress, on clk
	st.from = phaseStart

	var dst []rov.State
	for i := 0; ; i++ {
		clk.tick()
		w0 := time.Now()
		if st.lenQuiet == 0 && !w0.Before(churnStart) {
			st.lenQuiet = clk.now() - phaseStart
			phaseStart += st.lenQuiet
		}
		if !w0.Before(end) {
			st.lenCh = clk.now() - phaseStart
			break
		}
		for ; !w0.Before(nextDue); nextDue = nextDue.Add(interval) {
			st.late = append(st.late, w0.Sub(nextDue))
			st.applyUs = append(st.applyUs, float64(e.applyNext(tr))/1e3)
			w0 = time.Now()
		}
		at := clk.now() - phaseStart
		batch := e.batches[i%len(e.batches)]
		compact := e.live.CompactSnapshot() != nil
		dst = e.live.ValidateBatch(batch, dst[:0])
		w1 := time.Now()
		tr.add("rov.live.validate_batch", w0, w1, -1, int64(i))
		ms := float64(w1.Sub(w0)) / 1e6
		st.validatedBatches++
		if st.lenQuiet == 0 {
			st.quiet = append(st.quiet, sample{at: at, v: ms})
			continue
		}
		st.churn = append(st.churn, sample{at: at, v: ms})
		if compact {
			st.compactBatches++
		}
	}
	return st
}

// checkValidation is the workload's correctness check: sampled routes
// through the live index against a freshly built index of the table the
// deltas should have produced, some of them against the reference
// validator as well.
func (e *churnEnv) checkValidation(cfg config, rep *report) {
	want := e.tableNow()
	rep.check(sameTable(e.live.Snapshot().AppendVRPs(nil), want), "live index diverged from the table %d deltas should have produced", e.applied)
	fresh := rov.NewIndex(want)
	ref := rov.NewReference(want)
	rng := cfg.rng(streamCheck)
	bad, badRef := 0, 0
	for i := 0; i < checkRoutes; i++ {
		b := e.batches[rng.IntN(len(e.batches))]
		r := b[rng.IntN(len(b))]
		got := e.live.Validate(r.Prefix, r.Origin)
		if got != fresh.Validate(r.Prefix, r.Origin) {
			bad++
		}
		if i < checkReference && got != ref.Validate(r.Prefix, r.Origin) {
			badRef++
		}
	}
	rep.attempt(checkRoutes + checkReference)
	rep.fail(bad, "sampled routes validate differently through the live index and a fresh index")
	rep.fail(badRef, "sampled routes validate differently through the live index and the reference validator")
}

func runValidateChurn(cfg config, rep *report) error {
	env, setupS, err := timedSetups(cfg.clk, cfg.setups, func() (*churnEnv, error) { return buildChurnEnv(cfg) })
	if err != nil {
		return err
	}
	rep.e2e("setup_s", setupS, 0, cfg.setups)
	if len(env.batches) == 0 {
		return errors.New("validate_churn has no route batch")
	}
	dur := time.Duration(cfg.seconds * float64(time.Second))

	// What a router's validation table costs per VRP: the heap that a second
	// index of the same table adds. Read before the churn, after which an
	// index's append-only arenas hold however much garbage the last
	// compaction happened to leave.
	without := heapAfterGC()
	twin := rov.NewLiveIndex(env.base)
	with := heapAfterGC()
	rep.e2e("heap_bytes_per_vrp", float64(with-min(with, without))/float64(twin.Len()), 0, 0)

	rss := watchRSS()
	defer rss.stop()

	// Warm-up: discarded quiet validation pulls the index into whatever
	// cache will hold of it.
	var dst []rov.State
	for i, warmEnd := 0, time.Now().Add(warmUp(dur)); time.Now().Before(warmEnd); i++ {
		dst = env.live.ValidateBatch(env.batches[i%len(env.batches)], dst[:0])
	}

	if !cfg.trace {
		st := env.runChurnStage(cfg.clk, dur, nil)
		rep.attempt(st.validatedBatches)
		p50 := segmentStat(st.quiet, st.lenQuiet, 5, median, cfg.clk.latencyScale(st.from))
		rep.e2e("latency_p50_ms", p50.value, p50.spread, p50.n)
		rate := st.rate(st.churn, st.lenCh, cfg.clk.rateScale(st.from+st.lenQuiet))
		rep.e2e("throughput_per_s", rate.value, rate.spread, rate.n)
		env.checkValidation(cfg, rep)
		rep.e2e("peak_rss_mb", rss.stop(), 0, 0)
		cfg.logf("validate_churn: quiet %.2f M routes/s, churn %.2f M routes/s, generator late p99 %.3f ms",
			st.rate(st.quiet, st.lenQuiet, nil).value/1e6, rate.value/1e6, lateP99ms(st.late))
		return nil
	}

	tr := newTracer(1 << 18)
	plain := env.runChurnStage(nil, dur/2, tr)
	tr.enable(true)
	mark := markRuntime()
	traced := env.runChurnStage(nil, dur/2, tr)
	mark.since(rep)
	tr.enable(false)
	rep.attempt(plain.validatedBatches + traced.validatedBatches)

	rep.layer("rov.live.apply_us", median(traced.applyUs))
	if p99, ok := percentile(traced.applyUs, 0.99); ok {
		rep.layer("rov.live.apply_p99_us", p99)
	}
	if n := len(traced.churn); n > 0 {
		rep.layer("rov.live.compact_share", float64(traced.compactBatches)/float64(n))
		if p99, ok := percentile(values(traced.churn), 0.99); ok {
			rep.layer("rov.live.validate_batch_p99_us", p99*1e3)
		}
	}
	rep.layer("bench.late_p99_ms", lateP99ms(traced.late))
	if base := plain.rate(plain.churn, plain.lenCh, nil).value; base > 0 {
		// Throughput: overhead is the share of it that tracing took away.
		rep.layer("bench.trace_overhead_share", (base-traced.rate(traced.churn, traced.lenCh, nil).value)/base)
	}
	env.checkValidation(cfg, rep)
	env.probes(cfg, rep)
	return finishTraced(cfg, rep, tr)
}

// nsPerRoute times f over every batch, probeRounds times, and returns the
// median cost per route.
func (e *churnEnv) nsPerRoute(f func(batch []rov.Route)) float64 {
	routes := 0
	for _, b := range e.batches {
		routes += len(b)
	}
	return timeMedianMs(func() {
		for _, b := range e.batches {
			f(b)
		}
	}) * 1e6 / float64(routes)
}

// probes measures the read path's layers one at a time on a quiescent
// index of Table 1's full-deployment table (730,007 PDUs at paper scale, far
// larger than any cache), then, on the workload's own index, the write
// path's cost and how long the compact snapshot stays away after a burst.
func (e *churnEnv) probes(cfg config, rep *report) {
	d, pin := cfg.dataset(paperScale)
	_, full, res := fullDeployment(d)
	err := pin.checkFull(res)
	rep.check(err == nil, "%v", err)
	big := rov.NewLiveIndex(full)
	ix := big.Snapshot()
	cx := big.CompactSnapshot()
	var dst []rov.State
	rep.layer("rov.compact.validate_ns", e.nsPerRoute(func(b []rov.Route) { dst = cx.ValidateBatch(b, dst[:0]) }))
	rep.layer("rov.compact.validate_sorted_ns", e.nsPerRoute(func(b []rov.Route) { dst = cx.ValidateBatchSorted(b, dst[:0]) }))
	// The one probe that is about parallelism gets the host's CPUs back.
	runtime.GOMAXPROCS(cfg.nproc)
	rep.layer("rov.compact.validate_parallel_ns", e.nsPerRoute(func(b []rov.Route) { dst = cx.ValidateBatchParallel(b, dst[:0], cfg.nproc) }))
	runtime.GOMAXPROCS(procs)
	rep.layer("rov.index.validate_ns", e.nsPerRoute(func(b []rov.Route) { dst = ix.ValidateBatch(b, dst[:0]) }))
	rep.layer("rov.live.validate_ns", e.nsPerRoute(func(b []rov.Route) { dst = big.ValidateBatch(b, dst[:0]) }))

	// Write path: a burst of deltas with the allocator watched, then the
	// wait for a compact snapshot of the resulting table.
	const burst = 8
	before := readTotalAlloc()
	for i := 0; i < burst; i++ {
		e.applyNext(nil)
	}
	rep.layer("rov.live.apply_alloc_kb", float64(readTotalAlloc()-before)/burst/1024)
	start := time.Now()
	if waitUntil(recompactLimit, func() bool { return e.live.CompactSnapshot() != nil }) {
		rep.layer("rov.live.recompact_ms", float64(time.Since(start))/1e6)
	} else {
		// Reported at the limit, not hidden: the table served from the bit
		// trie for at least this long after the burst.
		rep.layer("rov.live.recompact_ms", float64(recompactLimit)/1e6)
		cfg.logf("validate_churn: no compact snapshot within %v of a %d-delta burst; the bit trie is still serving", recompactLimit, burst)
	}
}
