package main

import (
	"math"
	"math/rand/v2"
	"os"
	"sort"
	"time"
)

// The sandbox this benchmark runs on is a slice of a shared host, and the
// host has moods: for minutes at a time every workload here — and every
// synthetic loop tried beside them — runs 20 to 60 % slower, then recovers
// (bench/README.md, "Measured spreads", has the numbers). No estimator over
// one run's samples can see that, because the whole run sits inside one
// mood; two runs of the same code then differ by more than any bound worth
// setting. What does see it is a fixed piece of work timed right beside the
// workload: the reference kernel below.
//
// refClock is the clock of the end-to-end metrics. A workload calls tick
// between two operations; every refEvery that runs the kernel once, and the
// kernel's own running time is cut out of the clock (now), so it costs the
// workload no throughput. When the run is over, every segment of the timed
// phase is corrected by how slow the kernel ran during that segment
// (slowdown: its median there ÷ its nominal time): a time is divided by
// slowdown^β and a rate multiplied by it, where β says how hard the host's
// moods hit this workload compared with the kernel (refCalibration). On a
// quiet host the slowdown is 1 and the metric is what the wall clock says;
// on a slow one it reads as what the wall clock would have said on a quiet
// one. The kernel is benchmark code: nothing a change to the system does can
// move it, so a change that makes the system faster or slower moves the
// metrics exactly as it would on the wall clock.
//
// Per-layer metrics of a traced run stay uncorrected; that run reports the
// kernel's own time as bench.ref_kernel_ms.

const (
	refEvery      = 50 * time.Millisecond
	refMinSamples = 5 // a slowdown is the median of at least this many kernel runs
)

// calibration is what the correction needs to know about one workload: the
// kernel's median time between that workload's operations on this sandbox
// when the host is quiet (it differs by workload, because each leaves the
// caches in another state), and the workload's elasticities — the slope of
// log(metric) against log(kernel time) — for its latency and its rate.
// Fitted over 26 runs of each workload made while the host went through
// moods in which the kernel slowed by up to 1.5×; two sets of runs an hour
// apart gave the same slopes to ± 0.1, and what they leave unexplained has
// a standard deviation of 2–5 % (README, "Measured spreads"). Set-up uses
// setupElasticity on every workload.
type calibration struct {
	nominalMs, latency, rate float64
}

var refCalibration = map[string]calibration{
	"roa_change":     {nominalMs: 0.29, latency: 1.45, rate: 1.1},
	"cold_sync":      {nominalMs: 0.22, latency: 1.3, rate: 1.2},
	"cache_refresh":  {nominalMs: 0.23, latency: 0.9, rate: 0.9},
	"validate_churn": {nominalMs: 0.30, latency: 1.4, rate: 1.2},
}

const setupElasticity = 0.8

// The kernel is four parts of roughly equal length, chosen among eight
// candidates as the ones whose slow-downs tracked the workloads' best over
// 56 runs that spanned several of the host's moods: dependent loads from a
// table the size of an L2 cache, allocation and sorting, system calls on a
// pipe, and goroutine hand-offs. Its time is the geometric mean of the
// parts, so no part outweighs another. (A multiply chain barely noticed the
// moods the workloads suffered from and had moods of its own; a chase
// through 4 MiB and a 1 MiB copy swung far more than any workload.)
const (
	refChaseEntries = 64 << 10 // × 4 B = 256 KiB
	refChaseSteps   = 25_000
	refSortInts     = 4_000
	refPipeTrips    = 300
	refHandOffs     = 400
)

type refSample struct {
	at int64 // the clock's reading when the kernel ran
	ms float64
}

type refClock struct {
	cal        calibration
	table      []uint32
	rng        *rand.Rand
	pr, pw     *os.File
	buf        []byte
	ping, pong chan int
	sink       uint32

	spent    int64 // ns the kernel has run, cut out of the clock
	lastReal int64 // nowNs() at the end of the latest kernel run
	samples  []refSample
}

func newRefClock(workload string) (*refClock, error) {
	cal, ok := refCalibration[workload]
	if !ok {
		cal = calibration{nominalMs: 0.25, latency: 1, rate: 1}
	}
	rng := rand.New(rand.NewPCG(0x5eed, 0xc10c))
	c := &refClock{cal: cal, table: make([]uint32, refChaseEntries), rng: rng, buf: make([]byte, 64),
		ping: make(chan int), pong: make(chan int)}
	perm := rng.Perm(refChaseEntries)
	for i, p := range perm {
		c.table[p] = uint32(perm[(i+1)%refChaseEntries])
	}
	var err error
	if c.pr, c.pw, err = os.Pipe(); err != nil {
		return nil, err
	}
	go func() {
		defer close(c.pong)
		for v := range c.ping {
			c.pong <- v
		}
	}()
	c.kernel() // cold: page faults and a first trip through every path
	return c, nil
}

// close stops the helper goroutine and closes the pipe.
func (c *refClock) close() {
	close(c.ping)
	<-c.pong
	_ = c.pr.Close() // nothing to act on: the pipe held no data
	_ = c.pw.Close()
}

// kernel runs the four parts once and returns the geometric mean of their
// times in ms.
func (c *refClock) kernel() float64 {
	t0 := time.Now()
	at := c.sink % refChaseEntries
	for i := 0; i < refChaseSteps; i++ {
		at = c.table[at]
	}
	c.sink = at
	t1 := time.Now()
	xs := make([]int, refSortInts)
	for i := range xs {
		xs[i] = c.rng.Int()
	}
	sort.Ints(xs)
	c.sink += uint32(xs[0])
	t2 := time.Now()
	for i := 0; i < refPipeTrips; i++ {
		// A pipe of our own with 64 bytes in flight: neither call can
		// fail or come up short.
		_, _ = c.pw.Write(c.buf)
		_, _ = c.pr.Read(c.buf)
	}
	t3 := time.Now()
	for i := 0; i < refHandOffs; i++ {
		c.ping <- i
		<-c.pong
	}
	t4 := time.Now()
	logSum := 0.0
	for _, d := range []time.Duration{t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3)} {
		logSum += math.Log(float64(max(d, 1)) / 1e6)
	}
	return math.Exp(logSum / 4)
}

// sample runs the kernel once, off the clock.
func (c *refClock) sample() {
	start := nowNs()
	ms := c.kernel()
	c.lastReal = nowNs()
	c.samples = append(c.samples, refSample{at: start - c.spent, ms: ms})
	c.spent += c.lastReal - start
}

// tick is what a workload calls between two operations: it runs the kernel
// when refEvery has passed since the last time. On a nil clock — a traced
// run's — it does nothing.
func (c *refClock) tick() {
	if c != nil && nowNs()-c.lastReal >= int64(refEvery) {
		c.sample()
	}
}

// burst runs the kernel n times back to back: for workloads whose
// operations are longer than refEvery, and around set-up.
func (c *refClock) burst(n int) {
	if c == nil {
		return
	}
	for i := 0; i < n; i++ {
		c.sample()
	}
}

// now is the clock's reading: ns since epoch less the time the kernel has
// run; on a nil clock, the wall clock's.
func (c *refClock) now() int64 {
	if c == nil {
		return nowNs()
	}
	return nowNs() - c.spent
}

// slowdown is the kernel's median time over its runs inside [from, to] on
// the clock ÷ its nominal time. A window holding fewer than refMinSamples
// runs is widened to the refMinSamples nearest its middle. 1 on a nil clock.
func (c *refClock) slowdown(from, to int64) float64 {
	if c == nil || len(c.samples) == 0 {
		return 1
	}
	lo := sort.Search(len(c.samples), func(i int) bool { return c.samples[i].at >= from })
	hi := sort.Search(len(c.samples), func(i int) bool { return c.samples[i].at > to })
	mid := from + (to-from)/2
	for hi-lo < min(refMinSamples, len(c.samples)) {
		switch {
		case lo == 0:
			hi++
		case hi == len(c.samples):
			lo--
		case mid-c.samples[lo-1].at <= c.samples[hi].at-mid:
			lo--
		default:
			hi++
		}
	}
	ms := make([]float64, 0, hi-lo)
	for _, s := range c.samples[lo:hi] {
		ms = append(ms, s.ms)
	}
	return median(ms) / c.cal.nominalMs
}

// correct returns the scale function segmentStat applies to the segments
// of a phase that began at origin on the clock: each segment's value is
// multiplied by its slowdown^exp. A time takes exp = −β, a rate +β.
func (c *refClock) correct(origin int64, exp float64) func(from, to int64) float64 {
	return func(from, to int64) float64 { return math.Pow(c.slowdown(origin+from, origin+to), exp) }
}

// latencyScale and rateScale are correct with the workload's calibrated
// elasticities.
func (c *refClock) latencyScale(origin int64) func(from, to int64) float64 {
	if c == nil {
		return nil
	}
	return c.correct(origin, -c.cal.latency)
}

func (c *refClock) rateScale(origin int64) func(from, to int64) float64 {
	if c == nil {
		return nil
	}
	return c.correct(origin, c.cal.rate)
}

// kernelMs is the median kernel time over the whole run.
func (c *refClock) kernelMs() float64 {
	ms := make([]float64, len(c.samples))
	for i, s := range c.samples {
		ms[i] = s.ms
	}
	return median(ms)
}
