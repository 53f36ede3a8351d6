package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/rov"
	"repro/internal/rpki"
	"repro/internal/rtr"
)

// roa_change: small-delta propagation. Each publish is one
// Server.ApplyDelta announcing or withdrawing 8 VRPs; the number is how
// long until the router's validation table answers with the new state.
//
// The end-to-end run is one closed loop: publish k+1 is issued the moment
// publish k is enforced, so nothing ever idles, the caches stay warm, and a
// run holds some 90,000 chains. The open loop at 100 publishes/s — the same
// chain started from an idle process — runs in the traced run, where its
// median, its tail and the generator's lateness are per-layer metrics: from
// idle the median moved by a quarter between runs of the same code
// (whatever the host did with the core while the process slept is in it),
// which no bound worth having can sit on.

const (
	publishRate  = 100 // phase A, publishes per second (open loop)
	deltaVRPs    = 8
	churnGroups  = 64 // a group is re-touched only after 63 other publishes
	enforceLimit = time.Second
	chainCapRate = 30000 // phase B publishes the ledger has room for, per second
)

// ledger is the publish/enforce account shared by the generator and the
// routers' subscriber callbacks. Publish k toggles group k mod churnGroups:
// announced on even passes, withdrawn on odd ones, so a router coalescing
// neighbouring serials never sees their net effect cancel.
type ledger struct {
	groups    [][]rpki.VRP
	base      rtr.Serial // the cache's serial before publish 0
	due       []int64    // nowNs publish k was due; set before issued passes k
	applied   []atomic.Int64
	issued    atomic.Int64
	enforced  [][]atomic.Int64 // [router][publish] nowNs, 0 = not yet
	remaining []atomic.Int32   // [publish] routers still to enforce it
	next      []atomic.Int64   // [router] first publish not yet enforced; advanced only by that router's callback
	coalesced []atomic.Int64   // [router] publishes enforced via a later serial
	chain     chan int         // publishes enforced on every router; phase B's wake-up
}

func newLedger(groups [][]rpki.VRP, base rtr.Serial, nRouters, capacity int) *ledger {
	l := &ledger{
		groups: groups, base: base,
		due: make([]int64, capacity), applied: make([]atomic.Int64, capacity),
		enforced: make([][]atomic.Int64, nRouters), remaining: make([]atomic.Int32, capacity),
		next: make([]atomic.Int64, nRouters), coalesced: make([]atomic.Int64, nRouters),
		chain: make(chan int, 1),
	}
	for r := range l.enforced {
		l.enforced[r] = make([]atomic.Int64, capacity)
	}
	return l
}

func (l *ledger) announces(k int) bool { return (k/len(l.groups))%2 == 0 }

// want is the state publish k's probe route must validate to once enforced.
func (l *ledger) want(k int) rov.State {
	if l.announces(k) {
		return rov.Valid
	}
	return rov.NotFound
}

// publish issues publish k = issued through the cache and returns k.
func (l *ledger) publish(srv *rtr.Server, due time.Time, tr *tracer) (int, error) {
	k := int(l.issued.Load())
	if k >= len(l.due) {
		return k, fmt.Errorf("ledger full at %d publishes", k)
	}
	g := l.groups[k%len(l.groups)]
	l.due[k] = int64(due.Sub(epoch))
	l.remaining[k].Store(int32(len(l.enforced)))
	l.issued.Store(int64(k + 1)) // before ApplyDelta: a callback must find the entry
	start := time.Now()
	var serial rtr.Serial
	if l.announces(k) {
		serial = srv.ApplyDelta(g, nil)
	} else {
		serial = srv.ApplyDelta(nil, g)
	}
	end := time.Now()
	l.applied[k].Store(int64(end.Sub(epoch)))
	tr.add("rtr.server.apply_delta", start, end, -1, int64(serial))
	if want := rtr.SerialAdvance(l.base, uint32(k+1)); serial != want {
		return k, fmt.Errorf("publish %d got serial %d, want %d", k, serial, want)
	}
	return k, nil
}

// appliedAt maps a serial back to the instant its ApplyDelta returned.
func (l *ledger) appliedAt(serial rtr.Serial) (time.Time, bool) {
	k := int(int32(uint32(serial)-uint32(l.base))) - 1
	if k < 0 || k >= int(l.issued.Load()) {
		return time.Time{}, false
	}
	ns := l.applied[k].Load()
	return atNs(ns), ns != 0
}

// observe runs on router r's delivering goroutine right after a delta was
// applied to live: every publish whose probe now validates to its new state
// is enforced on r as of now. A delta covering several serials enforces all
// of them here; all but the last count as coalesced.
func (l *ledger) observe(r int, live *rov.LiveIndex, now time.Time) {
	issued := int(l.issued.Load())
	first := int(l.next[r].Load())
	k := first
	for ; k < issued; k++ {
		probe := l.groups[k%len(l.groups)][0]
		if live.Validate(probe.Prefix, probe.AS) != l.want(k) {
			break
		}
		l.enforced[r][k].Store(int64(now.Sub(epoch)))
		if l.remaining[k].Add(-1) == 0 {
			select {
			case l.chain <- k:
			default: // phase A: nobody is waiting
			}
		}
	}
	if k-first > 1 {
		l.coalesced[r].Add(int64(k - first - 1))
	}
	l.next[r].Store(int64(k))
}

// roaEnv is roa_change's set-up product: today's compressed table served
// by a cache on loopback.
type roaEnv struct {
	cache  *cache
	base   *rpki.Set
	groups [][]rpki.VRP
}

func (e *roaEnv) close() { e.cache.close() }

func buildRoaEnv(cfg config) (*roaEnv, error) {
	d, pin := cfg.dataset(paperScale)
	compressed, res := core.Compress(d.VRPs, core.Options{})
	if err := pin.checkToday(res); err != nil {
		return nil, err
	}
	c, err := startCache(compressed)
	if err != nil {
		return nil, err
	}
	pool := newVRPPool(d, cfg.rng(streamPool))
	return &roaEnv{cache: c, base: compressed, groups: pool.groups(churnGroups, deltaVRPs)}, nil
}

// roaStage is what one open-loop + closed-loop pass measured.
type roaStage struct {
	enforce    []sample // phase A: per (publish, router) latency in ms, stamped by due offset
	fromA      int64    // phase A's window, ns since epoch: [fromA, fromA+lenA)
	lenA       int64
	chains     []sample // phase B: per chain latency in ms, stamped by completion offset
	fromB      int64    // phase B's window on the clock it was given: [fromB, fromB+lenB)
	lenB       int64
	late       []time.Duration
	publishesA int
	failedA    int // (publish, router) pairs late past enforceLimit or never enforced
	failedB    int
	coalesced  int64
	err        error
}

func (s roaStage) p50() segmented { return segmentStat(s.enforce, s.lenA, 5, median, nil) }

// warmUp is the discarded start of a timed phase of length dur.
func warmUp(dur time.Duration) time.Duration { return min(2*time.Second, dur/5) }

// runOpenLoop is phase A: publishes on a fixed schedule of publishRate per
// second for dur, over publishes [issued, …) of the ledger. The warm-up
// publishes ride the same schedule first and are dropped from the samples.
func runOpenLoop(srv *rtr.Server, led *ledger, dur time.Duration, tr *tracer) roaStage {
	var st roaStage
	interval := time.Second / publishRate
	nWarm := int(warmUp(dur) / interval)
	nA := int(dur / interval)
	first := int(led.issued.Load())
	for r := range led.coalesced {
		led.coalesced[r].Store(0)
	}
	start := time.Now().Add(interval)
	startA := start.Add(time.Duration(nWarm) * interval)
	st.late = openLoop(wallClock{}, start, interval, nWarm+nA, func() bool { return st.err == nil }, func(_ int, due time.Time) {
		_, st.err = led.publish(srv, due, tr)
	})
	st.late = st.late[min(nWarm, len(st.late)):]
	if st.err != nil {
		return st
	}
	lastA := first + nWarm + nA - 1
	waitUntil(enforceLimit, func() bool { return led.remaining[lastA].Load() == 0 })
	st.fromA, st.lenA, st.publishesA = int64(startA.Sub(epoch)), int64(dur), nA
	for k := first + nWarm; k <= lastA; k++ {
		for r := range led.enforced {
			at := led.enforced[r][k].Load()
			if lat := time.Duration(at - led.due[k]); at == 0 || lat > enforceLimit {
				st.failedA++
				continue
			}
			st.enforce = append(st.enforce, sample{at: led.due[k] - st.fromA, v: float64(at-led.due[k]) / 1e6})
		}
	}
	for r := range led.coalesced {
		st.coalesced += led.coalesced[r].Load()
	}
	return st
}

// runClosedLoop is phase B, added to st: for warm + dur of wall time,
// publish k+1 is issued when every router has enforced k. Stamps are read
// from clk (the traced run passes nil: the wall clock), which the loop also
// lets run its reference kernel between two chains.
// Chains completed during warm carry a negative stamp, which the segment
// statistics leave out; lenB is the length of the rest on clk.
func runClosedLoop(srv *rtr.Server, led *ledger, clk *refClock, warm, dur time.Duration, tr *tracer, st *roaStage) {
	select {
	case <-led.chain:
	default:
	}
	startB := int64(-1) // on clk; set when the warm-up is over
	defer func() {
		if startB >= 0 {
			st.fromB, st.lenB = startB, clk.now()-startB
		}
	}()
	timer := time.NewTimer(enforceLimit)
	defer timer.Stop()
	for begin := time.Now(); time.Since(begin) < warm+dur; {
		clk.tick()
		if startB < 0 && time.Since(begin) >= warm {
			startB = clk.now()
		}
		if int(led.issued.Load()) == len(led.due) {
			return // the ledger is full: the phase ends here
		}
		sent := time.Now()
		k, err := led.publish(srv, sent, tr)
		if err != nil {
			st.err = err
			return
		}
		timer.Reset(enforceLimit)
		for got := -1; got != k; {
			select {
			case got = <-led.chain:
			case <-timer.C:
				st.failedB++
				return
			}
		}
		took := time.Since(sent)
		at := int64(-1)
		if startB >= 0 {
			at = clk.now() - startB
		}
		st.chains = append(st.chains, sample{at: at, v: float64(took) / 1e6})
	}
}

// runRoaStage is the traced run's stage: phase A for two thirds of dur,
// then phase B for the rest.
func runRoaStage(srv *rtr.Server, led *ledger, dur time.Duration, tr *tracer) roaStage {
	durA := dur * 2 / 3
	st := runOpenLoop(srv, led, durA, tr)
	if st.err != nil || st.failedA > 0 {
		return st // routers are behind; a closed loop on top would only time out
	}
	runClosedLoop(srv, led, nil, 0, dur-durA, tr, &st)
	return st
}

// tableNow is the table the cache serves after `issued` publishes.
func (e *roaEnv) tableNow(issued int) *rpki.Set {
	vrps := append([]rpki.VRP(nil), e.base.VRPs()...)
	n := len(e.groups)
	for g := range e.groups {
		if issued-1 < g {
			continue // never touched
		}
		// Group g was last touched by the newest publish k ≡ g (mod n).
		if last := (issued-1-g)/n*n + g; (last/n)%2 == 0 {
			vrps = append(vrps, e.groups[g]...)
		}
	}
	return rpki.NewSet(vrps)
}

// checkRouters is the workload's correctness check: after quiescence every
// router's table equals the cache's.
func checkRouters(rep *report, rs []router, want *rpki.Set) {
	for i, r := range rs {
		ok := waitUntil(5*time.Second, func() bool { return r.index().Len() == want.Len() })
		got := r.index().Snapshot().AppendVRPs(nil)
		rep.check(ok && sameTable(got, want), "router %d holds %d VRPs that differ from the cache's %d", i, len(got), want.Len())
	}
}

// syncCalls sums the Sync calls the bare routers among rs have made.
func syncCalls(rs []router) (n int64) {
	for _, r := range rs {
		if b, ok := r.(*bareRouter); ok {
			n += b.syncs.Load()
		}
	}
	return n
}

func stopAll(rs []router) {
	for _, r := range rs {
		r.stop()
	}
}

func runRoaChange(cfg config, rep *report) error {
	env, setupS, err := timedSetups(cfg.clk, cfg.setups, func() (*roaEnv, error) { return buildRoaEnv(cfg) })
	if err != nil {
		return err
	}
	defer env.close()
	rep.e2e("setup_s", setupS, 0, cfg.setups)

	dur := time.Duration(cfg.seconds * float64(time.Second))
	// The ledger has room for every publish: the whole run closed loop, or,
	// traced, three stages — the follower wiring gets half the time (its
	// phase A must yield the ≥ 1,000 samples a p99 needs), the bare wiring
	// with spans off and with spans on a quarter each — of an open loop for
	// two thirds and a closed loop for the rest.
	stageDurs := []time.Duration{dur / 2, dur / 4, dur / 4}
	capacity := int((dur+warmUp(dur)).Seconds()*chainCapRate) + 2
	if cfg.trace {
		capacity = 0
		for _, d := range stageDurs {
			capacity += int(d.Seconds()*publishRate) + publishRate*3 + int(d.Seconds()*chainCapRate/3) + 1
		}
	}
	led := newLedger(env.groups, env.cache.srv.Serial(), routers, capacity)
	heapBase := heapAfterGC()

	followers := func() ([]router, error) {
		rs := make([]router, routers)
		for i := range rs {
			i := i
			rs[i] = startFollower(env.cache.addr, nil, func(live *rov.LiveIndex, now time.Time) { led.observe(i, live, now) })
		}
		return rs, nil
	}
	var tr *tracer // nil, and so recording nothing, in an untraced run
	if cfg.trace {
		tr = newTracer(1 << 18)
	}
	bare := func() ([]router, error) {
		rs := make([]router, 0, routers)
		for i := 0; i < routers; i++ {
			i := i
			b, err := startBareRouter(env.cache.addr, tr, led, func(live *rov.LiveIndex, now time.Time) { led.observe(i, live, now) })
			if err != nil {
				stopAll(rs)
				return nil, err
			}
			rs = append(rs, b)
		}
		return rs, nil
	}
	// attach brings fresh routers level with the ledger: everything already
	// published is in the table they synced.
	attach := func(start func() ([]router, error)) ([]router, error) {
		rs, err := start()
		if err != nil {
			return nil, err
		}
		want := env.tableNow(int(led.issued.Load()))
		for _, r := range rs {
			r := r
			if !waitUntil(30*time.Second, func() bool { return r.index().Len() == want.Len() }) {
				stopAll(rs)
				return nil, fmt.Errorf("router did not reach the cache's %d VRPs", want.Len())
			}
		}
		for i := range led.next {
			led.next[i].Store(led.issued.Load())
		}
		return rs, nil
	}
	account := func(st roaStage) {
		rep.attempt(st.publishesA*routers + len(st.chains) + st.failedB)
		rep.fail(st.failedA, "phase A: (publish, router) pairs not enforced within %v", enforceLimit)
		rep.fail(st.failedB, "phase B: a publish was not enforced on every router within %v", enforceLimit)
	}

	if !cfg.trace {
		rss := watchRSS()
		defer rss.stop()
		rs, err := attach(followers)
		if err != nil {
			return err
		}
		defer stopAll(rs)
		// Resident cost of the synced follow pipelines, read before the
		// churn: afterwards the indexes' append-only arenas hold however
		// much garbage the last compaction happened to leave. Two things
		// settle first. The compaction that each index starts after its
		// initial full-table delta must land; and one publish must pass
		// through, because until then the supervisor's delivered snapshot
		// may or may not pin the mirror's pre-compaction slabs, depending on
		// which of sync and compaction won a race at start-up.
		for _, r := range rs {
			r := r
			waitUntil(5*time.Second, func() bool { return r.index().CompactSnapshot() != nil })
		}
		k, err := led.publish(env.cache.srv, time.Now(), nil)
		if err != nil {
			return err
		}
		if !waitUntil(enforceLimit, func() bool { return led.remaining[k].Load() == 0 }) {
			return fmt.Errorf("the settling publish was not enforced within %v", enforceLimit)
		}
		heap := heapAfterGC()
		rep.e2e("heap_bytes_per_vrp", float64(heap-min(heap, heapBase))/float64(routers*(env.base.Len()+deltaVRPs)), 0, 0)
		var st roaStage
		runClosedLoop(env.cache.srv, led, cfg.clk, warmUp(dur), dur, nil, &st)
		if st.err != nil {
			return st.err
		}
		account(st)
		p50 := segmentStat(st.chains, st.lenB, 5, median, cfg.clk.latencyScale(st.fromB))
		rep.e2e("latency_p50_ms", p50.value, p50.spread, p50.n)
		rate := segmentRate(st.chains, st.lenB, 5, 1, cfg.clk.rateScale(st.fromB))
		rep.e2e("throughput_per_s", rate.value, rate.spread, rate.n)
		checkRouters(rep, rs, env.tableNow(int(led.issued.Load())))
		rep.e2e("peak_rss_mb", rss.stop(), 0, 0)
		return nil
	}

	// Traced run. Stage 1 measures the follower wiring the end-to-end
	// metric is defined on; stages 2 and 3 run the bare-client wiring with
	// spans off and on, so the hop medians, what the supervisor stack adds
	// on top of them, and what recording the spans cost are all separable.
	rs, err := attach(followers)
	if err != nil {
		return err
	}
	sup := runRoaStage(env.cache.srv, led, stageDurs[0], nil)
	stopAll(rs)
	if sup.err != nil {
		return sup.err
	}
	account(sup)

	rs, err = attach(bare)
	if err != nil {
		return err
	}
	defer stopAll(rs)
	plain := runRoaStage(env.cache.srv, led, stageDurs[1], tr)
	if plain.err != nil {
		return plain.err
	}
	account(plain)
	syncs0, issued0 := syncCalls(rs), led.issued.Load()
	tr.enable(true)
	mark := markRuntime()
	traced := runRoaStage(env.cache.srv, led, stageDurs[2], tr)
	mark.since(rep)
	tr.enable(false)
	if traced.err != nil {
		return traced.err
	}
	account(traced)
	syncs := syncCalls(rs)
	checkRouters(rep, rs, env.tableNow(int(led.issued.Load())))

	// The hop medians come from phase A's spans only: that is the phase the
	// end-to-end latency is defined on, and in the closed loop of phase B
	// nothing ever parks, so every hop is several times faster there.
	spans, _ := tr.spans()
	hops := 0.0
	for _, hop := range []string{"rtr.server.apply_delta", "rtr.notify", "rtr.client.sync", "rtr.subscriber", "rov.live.apply"} {
		us := durationsUs(spans, hop, traced.fromA, traced.fromA+traced.lenA)
		m := median(us)
		hops += m
		rep.layer(hop+"_us", m)
		if p99, ok := percentile(us, 0.99); ok {
			rep.layer(hop+"_p99_us", p99)
		}
	}
	supP50, plainP50, tracedP50 := sup.p50(), plain.p50(), traced.p50()
	rep.layer("rtr.enforce_p50_ms", supP50.value)
	rep.layer("rtr.supervisor_extra_us", supP50.value*1e3-hops)
	if _, ok := percentile(values(sup.enforce), 0.99); ok {
		rep.layer("rtr.enforce_p99_ms", segmentStat(sup.enforce, sup.lenA, 5, p99Unchecked, nil).value)
	}
	rep.layer("rtr.coalesced_share", float64(sup.coalesced)/float64(max(1, sup.publishesA*routers)))
	if n := (led.issued.Load() - issued0) * int64(routers); n > 0 {
		rep.layer("rtr.syncs_per_publish", float64(syncs-syncs0)/float64(n))
	}
	rep.layer("bench.late_p99_ms", lateP99ms(sup.late))
	if plainP50.value > 0 {
		rep.layer("bench.trace_overhead_share", (tracedP50.value-plainP50.value)/plainP50.value)
	}
	cfg.logf("roa_change traced: enforce p50 follower %.1f µs, bare %.1f µs, bare+spans %.1f µs; hop p50s sum %.1f µs",
		supP50.value*1e3, plainP50.value*1e3, tracedP50.value*1e3, hops)
	return finishTraced(cfg, rep, tr)
}
