package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/prefix"
	"repro/internal/rpki"
	"repro/internal/synth"
)

// Table 1 sentinels: the PDU counts the paper-calibrated generator must
// reproduce at each input scale the benchmark uses. The generator's seed
// permutes the address layout only, so the counts hold for every -seed; a
// run that sees other numbers has changed compress_roas' semantics, which is
// a correctness failure, not a result.
type pins struct {
	todayIn, todayOut int // status quo
	fullIn, fullOut   int // full deployment, minimal ROAs
}

const (
	paperScale   = 1.0
	quarterScale = 0.25 // cache_refresh's input: see cache_refresh.go
	smokeScale   = 0.02
)

var pinned = map[float64]pins{
	paperScale:   {todayIn: 39949, todayOut: 33615, fullIn: 776945, fullOut: 730007}, // Table 1
	quarterScale: {todayIn: 9988, todayOut: 8404, fullIn: 194237, fullOut: 182501},
	smokeScale:   {todayIn: 801, todayOut: 673, fullIn: 15543, fullOut: 14603},
}

// rng returns the seeded generator for one purpose; distinct streams keep
// the churn pool, probes, perturbations and shuffles independent.
func (c config) rng(stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(c.seed, stream))
}

const (
	streamPool = iota + 1
	streamProbe
	streamPerturb
	streamShuffle
	streamCheck
)

// dataset generates the run's synthetic Internet at the given scale (always
// smokeScale under -smoke) and returns it with the counts it must compress
// to. At paperScale, -seed 1 is exactly the dataset bench_test.go uses.
func (c config) dataset(scale float64) (*synth.Dataset, pins) {
	if c.smoke {
		scale = smokeScale
	}
	p := synth.Params6_1()
	p.Seed += c.seed - 1
	if scale != paperScale {
		p = p.Scale(scale)
	}
	return synth.Generate(p), pinned[scale]
}

// checkToday and checkFull compare a compression result with the pinned
// counts.
func (p pins) checkToday(res core.Result) error {
	if res.In != p.todayIn || res.Out != p.todayOut {
		return fmt.Errorf("Table 1 sentinel: today's table compressed %d → %d, pinned %d → %d", res.In, res.Out, p.todayIn, p.todayOut)
	}
	return nil
}

func (p pins) checkFull(res core.Result) error {
	if res.In != p.fullIn || res.Out != p.fullOut {
		return fmt.Errorf("Table 1 sentinel: full deployment compressed %d → %d, pinned %d → %d", res.In, res.Out, p.fullIn, p.fullOut)
	}
	return nil
}

// fullDeployment is Table 1's full-deployment row: minimal ROAs for every
// announced route, then compress_roas. The compression result is checked
// against the pinned counts by the caller.
func fullDeployment(d *synth.Dataset) (minimal, compressed *rpki.Set, res core.Result) {
	minimal = core.FullDeploymentMinimal(d.Table)
	compressed, res = core.Compress(minimal, core.Options{})
	return minimal, compressed, res
}

// vrpPool hands out VRPs guaranteed disjoint from the dataset: /24s carved
// from IPv4 /20 blocks that no route or VRP of the dataset touches, so a
// churned VRP never changes the validity of an existing route and a probe
// on it reads NotFound until it is announced.
type vrpPool struct {
	rng    *rand.Rand
	used   []bool // by /20 block index
	block  uint64 // current block
	inBlk  int    // /24s already taken from it
	origin []rpki.ASN
}

const (
	blockBits   = 20
	per20       = 16 // /24s in a /20
	churnMaxLen = 24
)

func newVRPPool(d *synth.Dataset, rng *rand.Rand) *vrpPool {
	p := &vrpPool{rng: rng, used: make([]bool, 1<<blockBits), inBlk: per20, origin: d.Table.Origins()}
	mark := func(q prefix.Prefix) {
		if q.Family() != prefix.IPv4 {
			return
		}
		hi, _ := q.Bits()
		first := hi >> (64 - blockBits)
		n := uint64(1)
		if q.Len() < blockBits {
			n = 1 << (blockBits - q.Len())
		}
		for i := uint64(0); i < n; i++ {
			p.used[first+i] = true
		}
	}
	for _, r := range d.Table.Routes() {
		mark(r.Prefix)
	}
	for _, v := range d.VRPs.VRPs() {
		mark(v.Prefix)
	}
	return p
}

// take returns n fresh VRPs, each for an origin AS the dataset already has.
func (p *vrpPool) take(n int) []rpki.VRP {
	out := make([]rpki.VRP, 0, n)
	for len(out) < n {
		if p.inBlk == per20 {
			for {
				p.block = p.rng.Uint64N(1 << blockBits)
				if !p.used[p.block] {
					break
				}
			}
			p.used[p.block] = true
			p.inBlk = 0
		}
		hi := p.block<<(64-blockBits) | uint64(p.inBlk)<<(64-churnMaxLen)
		p.inBlk++
		pfx, err := prefix.Make(prefix.IPv4, hi, 0, churnMaxLen)
		if err != nil {
			panic(err) // a bug: the bits above are a valid IPv4 /24 by construction
		}
		out = append(out, rpki.VRP{Prefix: pfx, MaxLength: churnMaxLen, AS: p.origin[p.rng.IntN(len(p.origin))]})
	}
	return out
}

// groups returns g disjoint groups of n pool VRPs.
func (p *vrpPool) groups(g, n int) [][]rpki.VRP {
	out := make([][]rpki.VRP, g)
	for i := range out {
		out[i] = p.take(n)
	}
	return out
}

// closer is a set-up's product: everything it started can be stopped.
type closer interface{ close() }

// timedSetups builds the workload's environment n times, tearing down all
// but the last, and returns the last with the median build time: set-up is
// a metric of its own, so work moved into it shows, and one build's page
// faults or GC luck must not be the number. Like every end-to-end time it is
// corrected for the host's mood (ref.go): the reference kernel runs before
// and after each build, and those runs give the build's slowdown.
func timedSetups[E closer](clk *refClock, n int, build func() (E, error)) (env E, medianSeconds float64, err error) {
	if n < 1 {
		n = 1
	}
	var secs []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			env.close()
			var zero E
			env = zero
			runtime.GC()
		}
		from := clk.now()
		clk.burst(refMinSamples)
		start := time.Now()
		env, err = build()
		if err != nil {
			return env, 0, err
		}
		took := time.Since(start).Seconds()
		clk.burst(refMinSamples)
		secs = append(secs, took*clk.correct(0, -setupElasticity)(from, clk.now()))
	}
	return env, median(secs), nil
}

// sameTable reports whether got holds exactly the VRPs of want.
func sameTable(got []rpki.VRP, want *rpki.Set) bool {
	return rpki.NewSet(got).Equal(want)
}
