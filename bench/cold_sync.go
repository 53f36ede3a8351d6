package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/rov"
	"repro/internal/rpki"
	"repro/internal/rtr"
)

// cold_sync: full-table transfer. A router with nothing dials the cache and
// is unprotected until a route it should accept first validates Valid.
//
// The table is Table 1's full-deployment row at a quarter of paper scale
// (194,237 → 182,501 PDUs; 3.7 MB on the wire), not the 730,007-PDU row
// itself: against that one, a cold start of two routers on this 2-CPU
// sandbox took 5 to 20 s and 3.4 GiB, so a run of the contract's length saw
// one or two of them — no median — and the 92 runs the driver makes did not
// fit its time cap. A quarter keeps the regime (megabytes per message, index
// builds far larger than cache) and yields a dozen samples per run.
//
// Every iteration is cold in what the system owns — a new connection, a new
// supervisor, an empty index. The process's heap is not: one discarded
// iteration per router comes first, because the first growth of a Go heap
// is page-fault time (at paper scale 11 s against 4 s for the same sync,
// and very noisy), which says more about the VM than about rtr or rov.

const coldLimit = 60 * time.Second // a cold start slower than this is a failure

// coldEnv is cold_sync's set-up product: Table 1's full-deployment table,
// compressed, served by a cache on loopback, and a route it covers.
type coldEnv struct {
	cache *cache
	table *rpki.Set
	probe rov.Route
	spare []rpki.VRP // one VRP the table does not hold, for the settling publish
}

func (e *coldEnv) close() { e.cache.close() }

func buildColdEnv(cfg config) (*coldEnv, error) {
	d, pin := cfg.dataset(paperScale)
	compressed, res := core.Compress(d.VRPs, core.Options{})
	if err := pin.checkToday(res); err != nil {
		return nil, err
	}
	// The probe is a route the table makes Valid: the first such one from a
	// seeded starting point in the BGP table.
	ix := rov.NewIndex(compressed)
	routes := d.Table.Routes()
	at := cfg.rng(streamProbe).IntN(len(routes))
	for n := 0; ix.Validate(routes[at].Prefix, routes[at].Origin) != rov.Valid; n++ {
		if n == len(routes) {
			return nil, errors.New("no route of the BGP table is Valid under today's VRPs")
		}
		at = (at + 1) % len(routes)
	}
	c, err := startCache(compressed)
	if err != nil {
		return nil, err
	}
	return &coldEnv{cache: c, table: compressed, probe: rov.Route{Prefix: routes[at].Prefix, Origin: routes[at].Origin},
		spare: newVRPPool(d, cfg.rng(streamPool)).take(1)}, nil
}

// coldFollow starts one follower from nothing and returns it with the time
// from the start of its first Dial until the probe route validated Valid.
func (e *coldEnv) coldFollow() (*follower, time.Duration, error) {
	var dialAt atomic.Int64
	valid := make(chan time.Time, 1)
	f := startFollower(e.cache.addr,
		func() { dialAt.CompareAndSwap(0, nowNs()) },
		func(live *rov.LiveIndex, now time.Time) {
			if live.Validate(e.probe.Prefix, e.probe.Origin) == rov.Valid {
				select {
				case valid <- now:
				default:
				}
			}
		})
	timer := time.NewTimer(coldLimit)
	defer timer.Stop()
	select {
	case at := <-valid:
		return f, at.Sub(atNs(dialAt.Load())), nil
	case <-timer.C:
		f.stop()
		return nil, 0, fmt.Errorf("probe route %v AS%d not Valid within %v", e.probe.Prefix, e.probe.Origin, coldLimit)
	}
}

// coldBare is the traced wiring's iteration: the same cold start with the
// hops pulled apart — Dial, Client.Reset, LiveIndex.ResetTo — and a span
// around each.
func (e *coldEnv) coldBare(tr *tracer, iter int64) (time.Duration, error) {
	parent := tr.reserve()
	t0 := time.Now()
	cl, err := rtr.Dial(e.cache.addr)
	t1 := time.Now()
	if err != nil {
		return 0, err
	}
	defer func() {
		_ = cl.Close() // session torn down on purpose
		<-cl.Done()
	}()
	tr.add("rtr.dial", t0, t1, parent, iter)
	if err := cl.Reset(); err != nil {
		return 0, err
	}
	t2 := time.Now()
	tr.add("rtr.client.reset", t1, t2, parent, iter)
	table := cl.Set().VRPs()
	t3 := time.Now()
	tr.add("rtr.client.set", t2, t3, parent, iter)
	live := rov.NewLiveIndex(rpki.NewSet(nil))
	live.ResetTo(table)
	t4 := time.Now()
	tr.add("rov.live.reset_to", t3, t4, parent, iter)
	state := live.Validate(e.probe.Prefix, e.probe.Origin)
	end := time.Now()
	tr.finish(parent, "cold_sync.iteration", t0, end, iter)
	if state != rov.Valid {
		return 0, fmt.Errorf("probe route validated %v after a full sync", state)
	}
	return end.Sub(t0), nil
}

// coldLoop runs iterate closed loop until dur of wall time has passed (at
// least once) and stops at the first error. It returns, on clk (nil: the
// wall clock) and stamped by completion: every iteration's latency in ms;
// the time from the previous completion to this one in ms, which also
// holds the old router's teardown; and when the loop began and how long it
// ran. The reference
// kernel runs between iterations, which are longer than its usual interval.
func coldLoop(clk *refClock, dur time.Duration, iterate func(n int) (time.Duration, error)) (lat, period []sample, start, length int64, err error) {
	begin := time.Now()
	start = clk.now()
	prev := start
	for n := 0; n == 0 || time.Since(begin) < dur; n++ {
		clk.burst(3)
		d, err := iterate(n)
		if err != nil {
			return lat, period, start, clk.now() - start, err
		}
		now := clk.now()
		lat = append(lat, sample{at: now - start, v: float64(d) / 1e6})
		period = append(period, sample{at: now - start, v: float64(now-prev) / 1e6})
		prev = now
	}
	return lat, period, start, clk.now() - start, nil
}

func runColdSync(cfg config, rep *report) error {
	env, setupS, err := timedSetups(cfg.clk, cfg.setups, func() (*coldEnv, error) { return buildColdEnv(cfg) })
	if err != nil {
		return err
	}
	defer env.close()
	rep.e2e("setup_s", setupS, 0, cfg.setups)
	dur := time.Duration(cfg.seconds * float64(time.Second))
	vrps := env.table.Len()

	if !cfg.trace {
		rss := watchRSS()
		defer rss.stop()
		heapBase := heapAfterGC()
		// The router keeps its latest follower; the one still running when
		// time is up stays synced for the memory reading and the table check.
		var kept *follower
		defer func() {
			if kept != nil {
				kept.stop()
			}
		}()
		iterate := func(int) (d time.Duration, err error) {
			if kept != nil {
				kept.stop()
			}
			kept, d, err = env.coldFollow()
			return d, err
		}
		if _, _, _, _, err := coldLoop(cfg.clk, 0, iterate); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		lat, period, start, length, err := coldLoop(cfg.clk, dur, iterate)
		rep.attempt(len(lat))
		if err != nil {
			rep.attempt(1)
			rep.fail(1, "cold sync: %v", err)
		}
		if len(lat) == 0 {
			return errors.New("cold_sync completed no iteration")
		}
		cfg.logf("cold_sync: iteration latencies (ms) %.0f", values(lat))
		p50 := segmentStat(lat, length, 5, median, cfg.clk.latencyScale(start))
		rep.e2e("latency_p50_ms", p50.value, p50.spread, p50.n)
		// VRPs synced per second: a segment's iterations over the time from
		// its first one's predecessor completing to its last one completing.
		rate := segmentStat(period, length, 5, func(ms []float64) float64 {
			total := 0.0
			for _, v := range ms {
				total += v
			}
			return float64(vrps*len(ms)) / (total / 1e3)
		}, cfg.clk.rateScale(start))
		rep.e2e("throughput_per_s", rate.value, rate.spread, rate.n)
		if kept != nil {
			checkRouters(rep, []router{kept}, env.table)
			// The resident cost of a synced router is read once it has
			// settled, as on roa_change and for the same reason: its index's
			// first compaction must land, and one publish must pass, or the
			// supervisor's delivered snapshot may still pin the mirror's
			// pre-compaction slabs (537 or 883 B/VRP, by a race at start-up).
			waitUntil(5*time.Second, func() bool { return kept.live.CompactSnapshot() != nil })
			env.cache.srv.ApplyDelta(env.spare, nil)
			waitUntil(enforceLimit, func() bool { return kept.live.Len() == vrps+len(env.spare) })
		}
		heap := heapAfterGC()
		rep.e2e("heap_bytes_per_vrp", float64(heap-min(heap, heapBase))/float64(vrps+len(env.spare)), 0, 0)
		rep.e2e("peak_rss_mb", rss.stop(), 0, 0)
		return nil
	}

	// Traced run: the bare wiring with spans off, then on, then the
	// attribution probes that sit off the blocking path.
	tr := newTracer(1 << 12)
	stage := func() ([]float64, error) {
		lat, _, _, _, err := coldLoop(nil, dur/2, func(n int) (time.Duration, error) { return env.coldBare(tr, int64(n)) })
		rep.attempt(len(lat))
		if err != nil {
			rep.attempt(1)
			rep.fail(1, "cold sync (bare): %v", err)
		}
		if len(lat) == 0 {
			return nil, errors.New("cold_sync completed no bare iteration")
		}
		return values(lat), nil
	}
	if _, _, _, _, err := coldLoop(nil, 0, func(int) (time.Duration, error) { return env.coldBare(nil, 0) }); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	plain, err := stage()
	if err != nil {
		return err
	}
	tr.enable(true)
	mark := markRuntime()
	traced, err := stage()
	mark.since(rep)
	tr.enable(false)
	if err != nil {
		return err
	}
	spans, _ := tr.spans()
	rep.layer("rtr.dial_us", median(durationsUs(spans, "rtr.dial", 0, 0)))
	rep.layer("rtr.client.reset_ms", median(durationsUs(spans, "rtr.client.reset", 0, 0))/1e3)
	rep.layer("rov.live.reset_to_ms", median(durationsUs(spans, "rov.live.reset_to", 0, 0))/1e3)
	rep.layer("bench.trace_overhead_share", (median(traced)-median(plain))/median(plain))
	if err := env.probes(cfg, rep); err != nil {
		return err
	}
	cfg.logf("cold_sync traced: p50 bare %.1f ms, bare+spans %.1f ms", median(plain), median(traced))
	return finishTraced(cfg, rep, tr)
}

const probeRounds = 3

// timeMedianMs runs f probeRounds times and returns the median duration.
func timeMedianMs(f func()) float64 {
	var ms []float64
	for i := 0; i < probeRounds; i++ {
		start := time.Now()
		f()
		ms = append(ms, float64(time.Since(start))/1e6)
	}
	return median(ms)
}

// probes measures the layers under a cold sync one at a time, with nothing
// else running: the server's stream without a decoding client, the PDU
// codec alone, the client's table alone, the index builds alone.
func (e *coldEnv) probes(cfg config, rep *report) error {
	vrps := e.table.Len()

	// Server-side stream cost: a raw socket, one Reset Query, and the exact
	// byte count of the answer drained into nothing. The first answer is
	// captured to learn that count and to feed the decode probe.
	nc, err := net.Dial("tcp", e.cache.addr)
	if err != nil {
		return err
	}
	defer nc.Close()
	var wire bytes.Buffer
	if err := rtr.WritePDU(nc, rtr.Version1, &rtr.ResetQuery{}); err != nil {
		return err
	}
	tee := io.TeeReader(nc, &wire)
	for {
		pdu, _, err := rtr.ReadPDU(tee)
		if err != nil {
			return fmt.Errorf("raw drain: %w", err)
		}
		if _, ok := pdu.(*rtr.EndOfData); ok {
			break
		}
	}
	size := int64(wire.Len())
	var drainErr error
	rep.layer("rtr.server.stream_full_ms", timeMedianMs(func() {
		if err := rtr.WritePDU(nc, rtr.Version1, &rtr.ResetQuery{}); err != nil {
			drainErr = err
			return
		}
		if _, err := io.CopyN(io.Discard, nc, size); err != nil {
			drainErr = err
		}
	}))
	if drainErr != nil {
		return fmt.Errorf("raw drain: %w", drainErr)
	}
	rep.layer("rtr.wire_bytes_per_vrp", float64(size)/float64(vrps))

	captured := wire.Bytes()
	var pdus int
	var decodeErr error
	decodeMs := timeMedianMs(func() {
		rd := bytes.NewReader(captured)
		pdus = 0
		for rd.Len() > 0 {
			if _, _, err := rtr.ReadPDU(rd); err != nil {
				decodeErr = err
				return
			}
			pdus++
		}
	})
	if decodeErr != nil {
		return fmt.Errorf("decode probe: %w", decodeErr)
	}
	rep.layer("rtr.pdu.decode_ns", decodeMs*1e6/float64(pdus))
	rep.check(pdus == vrps+2, "full response carried %d PDUs, want %d prefix PDUs + Cache Response + End of Data", pdus, vrps)

	table := e.table.VRPs()
	var encodeErr error
	encodeMs := timeMedianMs(func() {
		pdu := &rtr.Prefix{Flags: rtr.FlagAnnounce}
		for _, v := range table {
			pdu.VRP = v
			if err := rtr.WritePDU(io.Discard, rtr.Version1, pdu); err != nil {
				encodeErr = err
				return
			}
		}
	})
	if encodeErr != nil {
		return fmt.Errorf("encode probe: %w", encodeErr)
	}
	rep.layer("rtr.pdu.encode_ns", encodeMs*1e6/float64(vrps))

	// Resident cost of one router's two tables, each on its own.
	h0 := heapAfterGC()
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
	h1 := heapAfterGC()
	rep.layer("rtr.client.table_bytes_per_vrp", float64(h1-min(h1, h0))/float64(vrps))
	live := rov.NewLiveIndex(rpki.NewSet(nil))
	live.ResetTo(cl.Set().VRPs())
	h2 := heapAfterGC()
	rep.layer("rov.live.bytes_per_vrp", float64(h2-min(h2, h1))/float64(vrps))
	runtime.KeepAlive(live)

	var ix *rov.Index
	rep.layer("rov.index.build_ms", timeMedianMs(func() { ix = rov.NewIndex(e.table) }))
	var cx *rov.CompactIndex
	rep.layer("rov.compact.build_ms", timeMedianMs(func() { cx = rov.CompactFromIndex(ix) }))
	rep.check(cx.Len() == vrps, "compact index holds %d VRPs, want %d", cx.Len(), vrps)
	return nil
}
