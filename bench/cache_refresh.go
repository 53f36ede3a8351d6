package main

import (
	"errors"
	"time"

	"repro/internal/core"
	"repro/internal/rov"
	"repro/internal/rpki"
	"repro/internal/rtr"
	"repro/internal/synth"
)

// cache_refresh: the relying-party side. One caller turns a freshly
// validated VRP list into what routers are served: NewSet → Compress →
// VerifyCompression → UpdateSet — cmd/rtrcache's loadSet + SIGHUP path
// minus the CSV parsing. No router is connected.

const (
	successorCount = 8
	refreshChurn   = 0.001 // share of tuples by which a successor differs from its predecessor
	warmCycles     = 2
)

// refreshEnv is cache_refresh's set-up product: a cache serving the
// compressed full-deployment table, and the successor VRP lists a
// validator would hand it next.
type refreshEnv struct {
	cache      *cache
	initial    *rpki.Set // the compressed table the cache starts out serving
	successors [][]rpki.VRP
	savedShare float64
}

func (e *refreshEnv) close() { e.cache.close() }

// makeSuccessors derives the successor lists: each drops half of
// refreshChurn of its predecessor's tuples and announces as many new ones.
// Lists stay in the validator's canonical order with the new tuples at the
// tail, as a relying party's output file would be.
func makeSuccessors(cfg config, d *synth.Dataset, base []rpki.VRP) [][]rpki.VRP {
	rng := cfg.rng(streamPerturb)
	pool := newVRPPool(d, cfg.rng(streamPool))
	out := make([][]rpki.VRP, successorCount)
	prev := base
	for i := range out {
		half := max(1, int(float64(len(prev))*refreshChurn/2))
		drop := make(map[int]bool, half)
		for len(drop) < half {
			drop[rng.IntN(len(prev))] = true
		}
		next := make([]rpki.VRP, 0, len(prev))
		for j, v := range prev {
			if !drop[j] {
				next = append(next, v)
			}
		}
		out[i] = append(next, pool.take(half)...)
		prev = out[i]
	}
	return out
}

func buildRefreshEnv(cfg config) (*refreshEnv, error) {
	d, pin := cfg.dataset(quarterScale)
	_, today := core.Compress(d.VRPs, core.Options{})
	if err := pin.checkToday(today); err != nil {
		return nil, err
	}
	minimal, compressed, res := fullDeployment(d)
	if err := pin.checkFull(res); err != nil {
		return nil, err
	}
	c, err := startCache(compressed)
	if err != nil {
		return nil, err
	}
	return &refreshEnv{cache: c, initial: compressed, successors: makeSuccessors(cfg, d, minimal.VRPs()), savedShare: res.SavedFraction()}, nil
}

// refreshCycle runs one refresh and returns what it served. Spans go to tr
// under one parent per cycle. With measureAlloc, Compress's TotalAlloc
// delta is read (two stop-the-world MemStats calls, kept out of the spans)
// and returned in MiB.
func (e *refreshEnv) refreshCycle(tr *tracer, cycle int64, vrps []rpki.VRP, measureAlloc bool) (served *rpki.Set, res core.Result, allocMB float64, err error) {
	parent := tr.reserve()
	t0 := time.Now()
	set := rpki.NewSet(vrps)
	t1 := time.Now()
	tr.add("rpki.new_set", t0, t1, parent, cycle)
	var before uint64
	if measureAlloc {
		before = readTotalAlloc()
		t1 = time.Now()
	}
	compressed, res := core.Compress(set, core.Options{})
	t2 := time.Now()
	tr.add("core.compress", t1, t2, parent, cycle)
	if measureAlloc {
		allocMB = float64(readTotalAlloc()-before) / (1 << 20)
		t2 = time.Now()
	}
	err = core.VerifyCompression(set, compressed)
	t3 := time.Now()
	tr.add("core.verify", t2, t3, parent, cycle)
	if err != nil {
		return nil, res, allocMB, err
	}
	e.cache.srv.UpdateSet(compressed)
	t4 := time.Now()
	tr.add("rtr.server.update_set", t3, t4, parent, cycle)
	tr.finish(parent, "cache_refresh.cycle", t0, t4, cycle)
	return compressed, res, allocMB, nil
}

// refreshed is what a refreshLoop call measured.
type refreshed struct {
	cycles  []sample  // per cycle that passed its checks: its duration in ms, stamped by when it ended
	from    int64     // the loop's start on its clock …
	length  int64     // … and how long it ran
	allocMB []float64 // Compress's allocation per such cycle, when asked for
	served  *rpki.Set // the last set published
	next    int       // the cycle number to continue from
}

// refreshLoop cycles through the successors closed loop for dur (at least
// once), checking every cycle and timing it on clk (nil: the wall clock);
// outs remembers what each successor compressed to, across calls.
func (e *refreshEnv) refreshLoop(rep *report, clk *refClock, tr *tracer, first int, dur time.Duration, outs []int, measureAlloc bool) (out refreshed) {
	out = refreshed{next: first, from: clk.now()}
	defer func() { out.length = clk.now() - out.from }()
	start := time.Now()
	for {
		n := out.next
		i := n % len(e.successors)
		clk.burst(3) // a cycle is ten times the kernel's usual interval
		t0 := time.Now()
		compressed, res, alloc, err := e.refreshCycle(tr, int64(n), e.successors[i], measureAlloc)
		took := time.Since(t0)
		out.next++
		rep.attempt(1)
		switch {
		case err != nil:
			rep.fail(1, "cycle %d: compression changed semantics: %v", n, err)
		case res.In != len(e.successors[i]) || res.Out != compressed.Len():
			rep.fail(1, "cycle %d: Result says %d → %d, sets hold %d → %d", n, res.In, res.Out, len(e.successors[i]), compressed.Len())
		case outs[i] != 0 && outs[i] != res.Out:
			rep.fail(1, "cycle %d: successor %d compressed to %d PDUs, earlier to %d", n, i, res.Out, outs[i])
		default:
			outs[i] = res.Out
			out.served = compressed
			out.cycles = append(out.cycles, sample{at: clk.now() - out.from, v: float64(took) / 1e6})
			if measureAlloc {
				out.allocMB = append(out.allocMB, alloc)
			}
		}
		if time.Since(start) >= dur {
			return out
		}
	}
}

// checkServed is the workload's end-to-end correctness check: a router
// that connects now receives exactly the last compressed set.
func (e *refreshEnv) checkServed(rep *report, want *rpki.Set) error {
	cl, err := rtr.Dial(e.cache.addr)
	if err != nil {
		return err
	}
	defer func() {
		_ = cl.Close() // session torn down on purpose
		<-cl.Done()
	}()
	if err := cl.Reset(); err != nil {
		return err
	}
	rep.check(cl.Set().Equal(want), "the cache serves %d VRPs that differ from the %d last compressed", cl.Len(), want.Len())
	return nil
}

func runCacheRefresh(cfg config, rep *report) error {
	env, setupS, err := timedSetups(cfg.clk, cfg.setups, func() (*refreshEnv, error) { return buildRefreshEnv(cfg) })
	if err != nil {
		return err
	}
	defer env.close()
	rep.e2e("setup_s", setupS, 0, cfg.setups)
	dur := time.Duration(cfg.seconds * float64(time.Second))
	outs := make([]int, len(env.successors))

	rss := watchRSS()
	defer rss.stop()

	// Warm-up: discarded cycles grow the heap, the server's snapshot ring
	// and the compressor's pools towards their working size.
	scratch := newReport(cfg, rep.spec)
	var warm refreshed
	for i := 0; i < warmCycles; i++ {
		warm = env.refreshLoop(scratch, nil, nil, warm.next, 0, outs, false)
	}
	if scratch.failed > 0 {
		return errors.New("cache_refresh warm-up cycles failed their checks")
	}
	next := warm.next

	if !cfg.trace {
		// What a cache holds per VRP served: the heap that a second cache adds
		// which has been through one refresh, as every cache in service has.
		// (Read off the working cache after the timed loop it was 220 or 239
		// B/VRP, by where that loop happened to stop.)
		without := heapAfterGC()
		twin, err := startCache(env.initial)
		if err != nil {
			return err
		}
		twin.srv.UpdateSet(warm.served)
		with := heapAfterGC()
		twin.close()
		rep.e2e("heap_bytes_per_vrp", float64(with-min(with, without))/float64(warm.served.Len()), 0, 0)

		got := env.refreshLoop(rep, cfg.clk, nil, next, dur, outs, false)
		if len(got.cycles) == 0 {
			return errors.New("cache_refresh completed no cycle")
		}
		if err := env.checkServed(rep, got.served); err != nil {
			return err
		}
		cfg.logf("cache_refresh: cycle durations (ms) %.0f", values(got.cycles))
		p50 := segmentStat(got.cycles, got.length, 5, median, cfg.clk.latencyScale(got.from))
		rep.e2e("latency_p50_ms", p50.value, p50.spread, p50.n)
		rep.e2e("throughput_per_s", float64(len(env.successors[0]))/(p50.value/1e3), p50.spread, p50.n)
		rep.e2e("peak_rss_mb", rss.stop(), 0, 0)
		return nil
	}

	tr := newTracer(1 << 12)
	plain := env.refreshLoop(rep, nil, tr, next, dur/2, outs, false)
	tr.enable(true)
	mark := markRuntime()
	traced := env.refreshLoop(rep, nil, tr, plain.next, dur/2, outs, true)
	mark.since(rep)
	tr.enable(false)
	if len(plain.cycles) == 0 || len(traced.cycles) == 0 {
		return errors.New("cache_refresh completed no traced cycle")
	}
	if err := env.checkServed(rep, traced.served); err != nil {
		return err
	}
	spans, _ := tr.spans()
	parts := 0.0
	for _, m := range []string{"rpki.new_set", "core.compress", "core.verify", "rtr.server.update_set"} {
		v := median(durationsUs(spans, m, 0, 0)) / 1e3
		parts += v
		rep.layer(m+"_ms", v)
	}
	rep.layer("core.compress_alloc_mb", median(traced.allocMB))
	rep.layer("core.saved_share", env.savedShare)
	plainP50, tracedP50 := median(values(plain.cycles)), median(values(traced.cycles))
	rep.layer("bench.trace_overhead_share", (tracedP50-plainP50)/plainP50)
	cfg.logf("cache_refresh traced: cycle p50 %.1f ms plain, %.1f ms with spans, parts sum %.1f ms", plainP50, tracedP50, parts)

	// Attribution probes, off the blocking path: the trie build inside
	// Compress, and the structural diff inside UpdateSet at its worst case —
	// two independent builds, so no shared arena prunes the walk.
	set := rpki.NewSet(env.successors[0])
	rep.layer("core.build_tries_ms", timeMedianMs(func() { core.ReleaseTries(core.BuildTries(set)) }))
	a, _ := core.Compress(set, core.Options{})
	b, _ := core.Compress(rpki.NewSet(env.successors[1]), core.Options{})
	var ixA, ixB *rov.Index
	rep.layer("rov.index.build_ms", timeMedianMs(func() { ixA = rov.NewIndex(a) }))
	ixB = rov.NewIndex(b)
	var ann, wd []rpki.VRP
	rep.layer("rov.diff_ms", timeMedianMs(func() { ann, wd = rov.Diff(ixA, ixB) }))
	rep.check(len(ann)+len(wd) > 0 && len(ann)+len(wd) < a.Len()/10, "diff of neighbouring successors announced %d, withdrew %d", len(ann), len(wd))
	return finishTraced(cfg, rep, tr)
}
