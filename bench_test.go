// Benchmarks regenerating every table and figure of the paper's evaluation.
// Each bench corresponds to a row of this experiment index:
//
//	BenchmarkFigure2               F2  — the 4→2 trie compression example
//	BenchmarkCompressToday         S7a/S7c — status-quo compression (39,949 tuples)
//	BenchmarkCompressFullDeployment S7c — full-deployment compression (776,945 tuples)
//	BenchmarkTable1                T1  — all seven scenarios, PDU counts as metrics
//	BenchmarkFigure3a/b            F3  — the weekly timelines (reduced scale)
//	BenchmarkFigure1Pipeline       F1  — sign → scan → compress → RTR → router
//	BenchmarkHijackScenarios       A1  — capture rates on a 1000-AS topology
//	BenchmarkAblation*             A2  — strict vs literal, subsumption, ROV index
//
// Absolute timings differ from the authors' i7-6700 (§7.2: 2.4 s / 36 s) —
// different language and host — but the *shape* must hold: full deployment
// costs roughly an order of magnitude more than today's RPKI, and memory
// scales linearly in tuples. go test -bench=. -benchmem surfaces both.
package repro

import (
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/bgpsim"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/prefix"
	"repro/internal/rov"
	"repro/internal/rpki"
	"repro/internal/rpkix"
	"repro/internal/rtr"
	"repro/internal/synth"
)

// figure2Input is the paper's Figure 2 trie (AS 31283).
func figure2Input() *rpki.Set {
	mk := func(s string, ml uint8) rpki.VRP {
		return rpki.VRP{Prefix: prefix.MustParse(s), MaxLength: ml, AS: 31283}
	}
	return rpki.NewSet([]rpki.VRP{
		mk("87.254.32.0/19", 19),
		mk("87.254.32.0/20", 20),
		mk("87.254.48.0/20", 20),
		mk("87.254.32.0/21", 21),
	})
}

func BenchmarkFigure2(b *testing.B) {
	in := figure2Input()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, res := core.Compress(in, core.Options{})
		if out.Len() != 2 || res.Out != 2 {
			b.Fatalf("Figure 2 compression broken: %v", out.VRPs())
		}
	}
}

// headlineDataset caches the 6/1/2017 paper-scale snapshot across benches.
var headlineDataset *synth.Dataset

func getHeadline(b *testing.B) *synth.Dataset {
	b.Helper()
	if headlineDataset == nil {
		headlineDataset = synth.Generate(synth.Params6_1())
	}
	return headlineDataset
}

func BenchmarkCompressToday(b *testing.B) {
	d := getHeadline(b)
	b.ReportAllocs()
	b.ResetTimer()
	var saved float64
	for i := 0; i < b.N; i++ {
		out, res := core.Compress(d.VRPs, core.Options{})
		if out.Len() >= d.VRPs.Len() {
			b.Fatal("no compression")
		}
		saved = res.SavedFraction()
	}
	b.ReportMetric(float64(d.VRPs.Len()), "tuples_in")
	b.ReportMetric(100*saved, "%saved") // paper: 15.90
}

func BenchmarkCompressFullDeployment(b *testing.B) {
	d := getHeadline(b)
	full := core.FullDeploymentMinimal(d.Table)
	b.ReportAllocs()
	b.ResetTimer()
	var saved float64
	for i := 0; i < b.N; i++ {
		_, res := core.Compress(full, core.Options{})
		saved = res.SavedFraction()
	}
	b.ReportMetric(float64(full.Len()), "tuples_in")
	b.ReportMetric(100*saved, "%saved") // paper: 6.04
}

func BenchmarkTable1(b *testing.B) {
	d := getHeadline(b)
	b.ReportAllocs()
	b.ResetTimer()
	var tab experiments.Table1
	for i := 0; i < b.N; i++ {
		tab = experiments.ComputeTable1(d)
	}
	b.ReportMetric(float64(tab.PDUs[experiments.Today]), "pdus_today")                      // paper: 39,949
	b.ReportMetric(float64(tab.PDUs[experiments.TodayCompressed]), "pdus_today_compressed") // 33,615
	b.ReportMetric(float64(tab.PDUs[experiments.TodayMinimalNoML]), "pdus_minimal")         // 52,745
	b.ReportMetric(float64(tab.PDUs[experiments.TodayMinimalCompressed]), "pdus_min_compr") // 49,308
	b.ReportMetric(float64(tab.PDUs[experiments.FullMinimalNoML]), "pdus_full")             // 776,945
	b.ReportMetric(float64(tab.PDUs[experiments.FullMinimalCompressed]), "pdus_full_compr") // 730,008
	b.ReportMetric(float64(tab.PDUs[experiments.FullLowerBound]), "pdus_lower_bound")       // 729,371
}

// figure3 benches run the 8-snapshot timeline at 1/10 scale so a bench
// iteration stays in seconds; cmd/experiments regenerates the full-scale
// figures.
func benchFigure3(b *testing.B, full bool) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fig := experiments.ComputeFigure3(full, func(date time.Time) experiments.Table1 {
			return experiments.ComputeTable1(synth.Generate(synth.SnapshotParams(date).Scale(0.1)))
		})
		for _, s := range fig.Scenarios {
			if len(fig.Series[s]) != 8 {
				b.Fatal("incomplete series")
			}
		}
	}
}

func BenchmarkFigure3a(b *testing.B) { benchFigure3(b, false) }
func BenchmarkFigure3b(b *testing.B) { benchFigure3(b, true) }

func BenchmarkFigure1Pipeline(b *testing.B) {
	// Build the signed repository once (key generation dominates otherwise).
	dir := b.TempDir()
	repo, err := rpkix.NewRepository("bench TA")
	if err != nil {
		b.Fatal(err)
	}
	ca, err := repo.AddCA("bench CA", []string{"0.0.0.0/0"})
	if err != nil {
		b.Fatal(err)
	}
	small := synth.Generate(synth.Params{
		Seed: 1, ROASingles: 30, ROASibC: 10, ROAVulnML: 10, VulnExtras: 5, ROAOriginAS: 50,
	})
	for _, r := range small.ROAs {
		if len(r.Prefixes) == 0 {
			continue
		}
		if err := repo.PublishROA(ca, r); err != nil {
			b.Fatal(err)
		}
	}
	if err := repo.Write(dir); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scan, err := rpkix.ScanROAs(dir)
		if err != nil {
			b.Fatal(err)
		}
		pdus, _ := core.Compress(scan.VRPs, core.Options{})
		srv := rtr.NewServer(pdus)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		go srv.Serve(l)
		c, err := rtr.Dial(l.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Sync(); err != nil {
			b.Fatal(err)
		}
		if c.Len() != pdus.Len() {
			b.Fatalf("router synced %d of %d PDUs", c.Len(), pdus.Len())
		}
		c.Close()
		srv.Close()
	}
}

func BenchmarkHijackScenarios(b *testing.B) {
	topo := bgpsim.Generate(bgpsim.GenerateParams{Seed: 2017, N: 1000})
	b.ReportAllocs()
	b.ResetTimer()
	var rates map[bgpsim.ScenarioKind]float64
	for i := 0; i < b.N; i++ {
		rates = bgpsim.RunAll(topo, 4)
	}
	b.ReportMetric(100*rates[bgpsim.ForgedOriginSubprefix], "%forged_sub_capture") // ~100
	b.ReportMetric(100*rates[bgpsim.ForgedOriginPrefix], "%forged_pfx_capture")    // << 50
	b.ReportMetric(100*rates[bgpsim.SubprefixMinimalROA], "%minimal_capture")      // 0
}

func BenchmarkAblationStrictVsLiteral(b *testing.B) {
	d := getHeadline(b)
	for _, bench := range []struct {
		name string
		mode core.Mode
	}{{"strict", core.Strict}, {"literal", core.Literal}} {
		b.Run(bench.name, func(b *testing.B) {
			b.ReportAllocs()
			var out int
			for i := 0; i < b.N; i++ {
				c, _ := core.Compress(d.VRPs, core.Options{Mode: bench.mode})
				out = c.Len()
			}
			b.ReportMetric(float64(out), "tuples_out")
		})
	}
}

func BenchmarkAblationSubsumption(b *testing.B) {
	d := getHeadline(b)
	for _, bench := range []struct {
		name    string
		subsume bool
	}{{"off", false}, {"on", true}} {
		b.Run(bench.name, func(b *testing.B) {
			b.ReportAllocs()
			var out int
			for i := 0; i < b.N; i++ {
				c, _ := core.Compress(d.VRPs, core.Options{Subsumption: bench.subsume})
				out = c.Len()
			}
			b.ReportMetric(float64(out), "tuples_out")
		})
	}
}

func BenchmarkAblationROVIndex(b *testing.B) {
	d := getHeadline(b)
	queries := d.Table.Routes()[:1000]
	b.Run("trie", func(b *testing.B) {
		ix := rov.NewIndex(d.VRPs)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q := queries[i%len(queries)]
			ix.Validate(q.Prefix, q.Origin)
		}
	})
	b.Run("compact", func(b *testing.B) {
		cx := rov.NewIndex(d.VRPs)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q := queries[i%len(queries)]
			cx.Validate(q.Prefix, q.Origin)
		}
	})
	b.Run("linear", func(b *testing.B) {
		ref := rov.NewReference(d.VRPs)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q := queries[i%len(queries)]
			ref.Validate(q.Prefix, q.Origin)
		}
	})
}

// BenchmarkIndexBuild measures constructing the ROV serving index over the
// paper-scale snapshot — the cost a router pays to (re)build its validation
// state from a full cache sync.
func BenchmarkIndexBuild(b *testing.B) {
	d := getHeadline(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix := rov.NewIndex(d.VRPs)
		if ix.Len() != d.VRPs.Len() {
			b.Fatalf("index holds %d of %d VRPs", ix.Len(), d.VRPs.Len())
		}
	}
}

// BenchmarkIndexValidateBatch measures bulk origin validation over the
// paper-scale table — the serving path a router runs across its whole RIB
// after a table update, which since the path-compressed index landed is the
// compact structure (the bit-trie batch baseline lives in internal/rov's
// BenchmarkValidateBatch). ns/op is per batch of 1000 routes.
func BenchmarkIndexValidateBatch(b *testing.B) {
	d := getHeadline(b)
	cx := rov.NewIndex(d.VRPs)
	rts := d.Table.Routes()[:1000]
	routes := make([]rov.Route, len(rts))
	for i, q := range rts {
		routes[i] = rov.Route{Prefix: q.Prefix, Origin: q.Origin}
	}
	dst := make([]rov.State, len(routes))
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dst = cx.ValidateBatch(routes, dst)
		}
	})
	b.Run("sorted", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dst = cx.ValidateBatchSorted(routes, dst)
		}
	})
	b.Run("parallel4", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dst = cx.ValidateBatchParallel(routes, dst, 4)
		}
	})
}

// BenchmarkLiveIndexDelta measures applying RTR deltas in place to a live
// index over the paper-scale snapshot. Each iteration announces k fresh
// VRPs and withdraws them again; ns/op must scale with k (the delta), not
// with the ~40k-VRP table — compare against BenchmarkIndexBuild, the cost
// the old rebuild-per-update pipeline paid for any delta size.
func BenchmarkLiveIndexDelta(b *testing.B) {
	d := getHeadline(b)
	for _, k := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("delta%d", k), func(b *testing.B) {
			live := rov.NewLiveIndex(d.VRPs)
			delta := make([]rpki.VRP, k)
			for i := range delta {
				// 198.18.0.0/15 (benchmarking space, RFC 2544) is absent from
				// the synthetic snapshot, so every announce is a real insert.
				p, err := prefix.Make(prefix.IPv4,
					(uint64(0xc612)<<48)|uint64(i)<<34, 0, 30)
				if err != nil {
					b.Fatal(err)
				}
				delta[i] = rpki.VRP{Prefix: p, MaxLength: 30, AS: 64500}
			}
			base := live.Len()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				live.Apply(delta, nil)
				live.Apply(nil, delta)
			}
			b.StopTimer()
			if live.Len() != base {
				b.Fatalf("table drifted: %d -> %d VRPs", base, live.Len())
			}
		})
	}
}

func BenchmarkMinimalize(b *testing.B) {
	d := getHeadline(b)
	b.ReportAllocs()
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		n = core.Minimalize(d.VRPs, d.Table).Len()
	}
	b.ReportMetric(float64(n), "pdus_minimal") // paper: 52,745
}

func BenchmarkSemanticEqualVerifier(b *testing.B) {
	d := getHeadline(b)
	compressed, _ := core.Compress(d.VRPs, core.Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ok, ce := core.SemanticEqual(d.VRPs, compressed); !ok {
			b.Fatalf("verifier rejected a correct compression: %v", ce)
		}
	}
}
