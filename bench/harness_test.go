package main

import (
	"math"
	"testing"
	"time"
)

// The harness's own arithmetic, against hand-computed cases.

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	// 1..1000: p99 is rank 990, with exactly 10 samples beyond it.
	if v, ok := percentile(seq(1000), 0.99); !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %t; want 990, true", v, ok)
	}
	// 1..999: rank ceil(989.01) = 990 leaves 9 beyond — not reported.
	if v, ok := percentile(seq(999), 0.99); ok || v != 0 {
		t.Errorf("p99 of 1..999 = %v, %t; want 0, false", v, ok)
	}
	// p90 of 1..100 is rank 90 with 10 beyond; of 1..99 rank 90 with 9.
	if v, ok := percentile(seq(100), 0.90); !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %t; want 90, true", v, ok)
	}
	if _, ok := percentile(seq(99), 0.90); ok {
		t.Error("p90 of 1..99 reported with 9 samples beyond it")
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of nothing reported")
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{9, 1, 5}, 5},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

func TestSegmentStatMedianOfSegmentsAndSpread(t *testing.T) {
	// Window of 100 in 5 segments of 20. Segment medians: 10, 20, 30, 40
	// and (segment 4) 100; samples outside the window are ignored.
	samples := []sample{
		{at: 0, v: 9}, {at: 5, v: 10}, {at: 19, v: 11}, // segment 0 → 10
		{at: 20, v: 20},                  // segment 1 → 20
		{at: 41, v: 25}, {at: 59, v: 35}, // segment 2 → 30
		{at: 60, v: 40},  // segment 3 → 40
		{at: 99, v: 100}, // segment 4 → 100
		{at: 100, v: 1e9}, {at: -1, v: 1e9},
	}
	got := segmentStat(samples, 100, 5, median, nil)
	if got.value != 30 {
		t.Errorf("median of segment medians = %v, want 30", got.value)
	}
	if want := (100.0 - 10.0) / 30.0; math.Abs(got.spread-want) > 1e-12 {
		t.Errorf("spread = %v, want (100-10)/30 = %v", got.spread, want)
	}
	if got.n != 8 {
		t.Errorf("n = %d, want the 8 samples inside the window", got.n)
	}
	// An empty segment is skipped, not counted as zero.
	got = segmentStat([]sample{{at: 0, v: 4}, {at: 90, v: 6}}, 100, 5, median, nil)
	if got.value != 5 || math.Abs(got.spread-0.4) > 1e-12 {
		t.Errorf("two populated segments: value %v spread %v, want 5 and 0.4", got.value, got.spread)
	}
	// A per-segment count turns samples into a rate.
	perSeg := segmentStat([]sample{{at: 1}, {at: 2}, {at: 25}, {at: 26}, {at: 27}, {at: 28}}, 40, 2,
		func(xs []float64) float64 { return float64(len(xs)) }, nil)
	if perSeg.value != 3 {
		t.Errorf("median of counts 2 and 4 = %v, want 3", perSeg.value)
	}
	// A scale function multiplies each segment's value by what it returns
	// for that segment's window: here ×1, ×2, ×3, ×4, ×5 → 10, 40, 90, 160, 500.
	got = segmentStat(samples, 100, 5, median, func(from, to int64) float64 {
		if to-from != 20 {
			t.Errorf("segment window [%d, %d) is not 20 wide", from, to)
		}
		return float64(from/20 + 1)
	})
	if got.value != 90 {
		t.Errorf("median of scaled segment medians = %v, want 90", got.value)
	}
}

// TestRefClock checks the reference clock's arithmetic on hand-made kernel
// samples: the window a slowdown is taken over, its widening, the
// correction's direction, and that the kernel's own time is cut out.
func TestRefClock(t *testing.T) {
	c := &refClock{cal: calibration{nominalMs: 2, latency: 1.5, rate: 0.5}}
	for i, ms := range []float64{2, 2, 2, 4, 4, 4, 4, 4, 8, 8} {
		c.samples = append(c.samples, refSample{at: int64(i) * 10, ms: ms})
	}
	// [30, 70] holds the five runs of 4 ms: slowdown 4/2.
	if got := c.slowdown(30, 70); got != 2 {
		t.Errorf("slowdown(30, 70) = %v, want 2", got)
	}
	// [85, 95] holds one run; widened to the five nearest its middle (90),
	// the runs at 50 … 90: 4, 4, 4, 8, 8 → median 4.
	if got := c.slowdown(85, 95); got != 2 {
		t.Errorf("slowdown(85, 95) = %v, want 2 (median of the five nearest runs)", got)
	}
	// The whole run: median of all ten = 4.
	if got := c.slowdown(0, 1000); got != 2 {
		t.Errorf("slowdown(0, 1000) = %v, want 2", got)
	}
	// A time is divided by slowdown^β, a rate multiplied by it; origin
	// shifts the segment's window onto the clock.
	if got := c.latencyScale(30)(0, 40); math.Abs(got-math.Pow(2, -1.5)) > 1e-12 {
		t.Errorf("latency scale = %v, want 2^-1.5", got)
	}
	if got := c.rateScale(0)(0, 20); math.Abs(got-1) > 1e-12 {
		t.Errorf("rate scale over the quiet start = %v, want 1", got)
	}
	if got := c.rateScale(30)(0, 40); math.Abs(got-math.Sqrt2) > 1e-12 {
		t.Errorf("rate scale = %v, want 2^0.5", got)
	}
	// A nil clock is the wall clock and corrects nothing.
	var none *refClock
	if none.latencyScale(0) != nil || none.slowdown(0, 1) != 1 {
		t.Error("a nil clock corrected something")
	}
	none.tick()
	none.burst(3)

	// A real clock: kernel runs are cut out of its reading.
	real, err := newRefClock("no such workload")
	if err != nil {
		t.Fatal(err)
	}
	defer real.close()
	before, wall := real.now(), time.Now()
	real.burst(3)
	passed, wallPassed := real.now()-before, int64(time.Since(wall))
	if len(real.samples) != 3 || real.spent <= 0 || passed > wallPassed-real.spent+int64(time.Millisecond) {
		t.Errorf("after 3 kernel runs of %d ns in all, the clock advanced %d ns of %d on the wall", real.spent, passed, wallPassed)
	}
	real.tick() // refEvery has not passed since the burst
	if len(real.samples) != 3 {
		t.Errorf("tick ran the kernel %v after the last run", time.Duration(nowNs()-real.lastReal))
	}
	if k := real.kernelMs(); k <= 0 || math.IsNaN(k) {
		t.Errorf("kernel median = %v ms", k)
	}
}

func TestQuartileSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]:
	// (8.25 − 2.75) / 5.5 = 1.
	if got := quartileSpread(seq(10)); math.Abs(got-1) > 1e-12 {
		t.Errorf("quartileSpread(1..10) = %v, want 1", got)
	}
	// statistics.quantiles([10, 11, 13, 20], n=4) == [10.25, 12.0, 18.25]:
	// 8 / 12.
	if got := quartileSpread([]float64{20, 10, 13, 11}); math.Abs(got-8.0/12) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, 8.0/12)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: 1.5 / 1.5.
	if got := quartileSpread([]float64{1, 2}); math.Abs(got-1) > 1e-12 {
		t.Errorf("quartileSpread([1 2]) = %v, want 1", got)
	}
	if got := quartileSpread([]float64{5}); got != 0 {
		t.Errorf("quartileSpread of one value = %v, want 0", got)
	}
}

func TestSelfTimeNestedAndOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Name: "root", StartNs: 0, EndNs: 100, Parent: -1},
		{ID: 1, Name: "a", StartNs: 10, EndNs: 30, Parent: 0},
		{ID: 2, Name: "b", StartNs: 20, EndNs: 50, Parent: 0},  // overlaps a by 10
		{ID: 3, Name: "c", StartNs: 90, EndNs: 120, Parent: 0}, // sticks out by 20
		{ID: 4, Name: "a.inner", StartNs: 12, EndNs: 20, Parent: 1},
		{ID: 5, Name: "orphan", StartNs: 0, EndNs: 7, Parent: 42},
	}
	self := selfTimes(spans)
	want := map[int64]int64{
		0: 100 - (40 + 10), // [10,50) once, plus [90,100) of the clipped child
		1: 20 - 8,
		2: 30,
		3: 30,
		4: 8,
		5: 7,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestTracerRingKeepsTheNewestSpans(t *testing.T) {
	tr := newTracer(4)
	at := func(ns int64) time.Time { return epoch.Add(time.Duration(ns)) }
	if id := tr.add("off", at(0), at(1), -1, 0); id != -1 {
		t.Errorf("a tracer that is off recorded span %d", id)
	}
	tr.enable(true)
	root := tr.reserve()
	for i := int64(0); i < 5; i++ {
		tr.add("child", at(10*i), at(10*i+5), root, i)
	}
	tr.finish(root, "root", at(0), at(100), 0) // its slot is long gone
	spans, dropped := tr.spans()
	if dropped != 2 || len(spans) != 4 {
		t.Fatalf("kept %d spans, dropped %d; want 4 and 2", len(spans), dropped)
	}
	for i, s := range spans {
		if s.Name != "child" || s.Request != int64(i+1) || s.Parent != -1 {
			t.Errorf("span %d = %+v; want child %d with its overwritten parent reported as -1", i, s, i+1)
		}
	}
	if s := spans[0]; s.StartNs != 10 || s.EndNs != 15 {
		t.Errorf("span times = [%d, %d], want [10, 15]", s.StartNs, s.EndNs)
	}
	var none *tracer
	if id := none.add("x", at(0), at(1), -1, 0); id != -1 {
		t.Error("a nil tracer recorded a span")
	}
}

// stallClock is a fake clock on which sleeping costs nothing and time moves
// only when the test says so.
type stallClock struct{ t time.Time }

func (c *stallClock) now() time.Time { return c.t }

func (c *stallClock) sleepUntil(t time.Time) {
	if t.After(c.t) {
		c.t = t
	}
}

func TestOpenLoopChargesAStallToLaterOperations(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &stallClock{t: start}
	ms := time.Millisecond
	var dues []time.Duration
	late := openLoop(clk, start, 10*ms, 5, nil, func(k int, due time.Time) {
		dues = append(dues, due.Sub(start))
		if k == 1 {
			clk.t = clk.t.Add(35 * ms) // operation 1 blocks for 35 ms
		}
	})
	// Operation 1 is sent on time at 10 ms and returns at 45 ms. Operations
	// 2, 3, 4 were due at 20, 30, 40 ms and all go out at 45 ms: late by 25,
	// 15 and 5 ms. Their due instants — what latency is timed from — do
	// not move.
	wantLate := []time.Duration{0, 0, 25 * ms, 15 * ms, 5 * ms}
	wantDue := []time.Duration{0, 10 * ms, 20 * ms, 30 * ms, 40 * ms}
	for k := range wantLate {
		if late[k] != wantLate[k] {
			t.Errorf("operation %d late by %v, want %v", k, late[k], wantLate[k])
		}
		if dues[k] != wantDue[k] {
			t.Errorf("operation %d timed from %v, want its due instant %v", k, dues[k], wantDue[k])
		}
	}
	if got := lateP99ms(late); got != 25 {
		t.Errorf("late p99 = %v ms, want the 25 ms worst case of five", got)
	}
	// keepGoing ends the schedule early.
	n := 0
	late = openLoop(clk, clk.t, ms, 10, func() bool { return n < 3 }, func(int, time.Time) { n++ })
	if n != 3 || len(late) != 3 {
		t.Errorf("stopped schedule fired %d operations, reported %d", n, len(late))
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "latency", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "rate", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		name               string
		m                  metricSpec
		old, new           float64
		spreadOld, spreadN float64
		change             float64
		status             string
	}{
		{"slower within the bound", lower, 100, 109, 0.02, 0.02, 0.09, "ok"},
		{"slower past the bound", lower, 100, 111, 0.02, 0.02, 0.11, "regressed"},
		{"faster", lower, 100, 50, 0.02, 0.02, -0.5, "ok"},
		{"rate fell past the bound", higher, 100, 85, 0.02, 0.02, 0.15, "regressed"},
		{"rate rose", higher, 100, 130, 0.02, 0.02, -0.3, "ok"},
		{"spread wider than the bound", lower, 100, 150, 0.02, 0.12, 0.5, "unresolved"},
		{"nothing to compare against", lower, 0, 5, 0, 0, 0, "ok"},
	} {
		change, status := judge(c.m, c.old, c.new, c.spreadOld, c.spreadN)
		if math.Abs(change-c.change) > 1e-12 || status != c.status {
			t.Errorf("%s: got %+.3f %s, want %+.3f %s", c.name, change, status, c.change, c.status)
		}
	}
}

func TestComparableRefusesOtherEnvironments(t *testing.T) {
	base := header{CPUs: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", Seed: 1, Seconds: 12}
	if err := comparable(base, base); err != nil {
		t.Errorf("identical headers refused: %v", err)
	}
	other := base
	other.Commit, other.When, other.CPUModel = "abc", "later", "another"
	if err := comparable(base, other); err != nil {
		t.Errorf("headers differing only in commit, time and CPU model refused: %v", err)
	}
	for name, mutate := range map[string]func(*header){
		"CPU count":  func(h *header) { h.CPUs = 1 },
		"GOMAXPROCS": func(h *header) { h.GOMAXPROCS = 1 },
		"Go version": func(h *header) { h.GoVersion = "go1.25.0" },
		"seed":       func(h *header) { h.Seed = 2 },
		"run length": func(h *header) { h.Seconds = 30 },
	} {
		h := base
		mutate(&h)
		if err := comparable(base, h); err == nil {
			t.Errorf("headers differing in %s were accepted", name)
		}
	}
}

func TestReportResultHoldsTheContract(t *testing.T) {
	sp := &spec{
		EndToEnd: []metricSpec{{Name: "setup_s", Unit: "s"}, {Name: "latency_ms", Unit: "ms"}},
		PerLayer: []metricSpec{{Name: "a.x_us", Unit: "us"}, {Name: "b.y_us", Unit: "us"}},
	}
	cfg := config{workload: "w", log: testLog{t}}

	rep := newReport(cfg, sp)
	rep.attempt(3)
	rep.e2e("setup_s", 1.5, 0, 3)
	if _, err := rep.result(); err == nil {
		t.Error("a missing end-to-end metric was accepted")
	}
	rep.e2e("latency_ms", 2.5, 0.1, 40)
	res, err := rep.result()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted != 3 || len(res.Metrics) != 2 || res.Metrics["latency_ms"] != (metricValue{2.5, "ms"}) {
		t.Errorf("untraced result = %+v", res)
	}
	rep.fail(1, "one went wrong")
	if res, _ = rep.result(); res.Correct || res.Failed != 1 {
		t.Errorf("a failed operation left correct=%t failed=%d", res.Correct, res.Failed)
	}

	cfg.trace = true
	rep = newReport(cfg, sp)
	rep.attempt(1)
	rep.layer("a.x_us", 7)
	res, err = rep.result()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != 2 || res.Metrics["a.x_us"].Value != 7 || res.Metrics["b.y_us"] != (metricValue{0, "us"}) {
		t.Errorf("traced result = %+v; want a.x_us=7 and the unexercised b.y_us=0", res.Metrics)
	}
	rep.layer("c.typo_us", 1)
	if _, err := rep.result(); err == nil {
		t.Error("a metric BENCHMARK.json does not declare was accepted")
	}
	rep = newReport(cfg, sp)
	rep.attempt(1)
	rep.layer("a.x_us", math.NaN())
	if _, err := rep.result(); err == nil {
		t.Error("a NaN metric was accepted")
	}
	if _, err := newReport(cfg, sp).result(); err == nil {
		t.Error("a run that attempted nothing was accepted")
	}
}

// testLog routes the harness's progress lines to the test log.
type testLog struct{ t *testing.T }

func (l testLog) Write(p []byte) (int, error) {
	l.t.Log(string(p[:max(0, len(p)-1)]))
	return len(p), nil
}
