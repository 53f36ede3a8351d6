// Command experiments regenerates the paper's evaluation: Table 1, Figure
// 3a, Figure 3b, and the §6/§7.2 statistics, from the calibrated synthetic
// snapshots. Output is paper-vs-measured so discrepancies are visible at a
// glance; -csv additionally writes machine-readable figure data.
//
// Usage:
//
//	experiments [-table1] [-fig3a] [-fig3b] [-stats] [-hijack] [-all]
//	            [-scale 1.0] [-csv dir]
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/internal/bgpsim"
	"repro/internal/experiments"
	"repro/internal/synth"
)

func main() {
	var (
		table1   = flag.Bool("table1", false, "reproduce Table 1")
		fig3a    = flag.Bool("fig3a", false, "reproduce Figure 3a")
		fig3b    = flag.Bool("fig3b", false, "reproduce Figure 3b")
		stats    = flag.Bool("stats", false, "reproduce the §6/§7.2 statistics")
		hijack   = flag.Bool("hijack", false, "run the §4/§5 hijack capture simulation")
		adoption = flag.Bool("adoption", false, "run the ROV partial-adoption sweep (extension)")
		overhead = flag.Bool("overhead", false, "measure §7.2 computational overhead")
		all      = flag.Bool("all", false, "run everything")
		scale    = flag.Float64("scale", 1.0, "scale dataset size (1.0 = paper scale)")
		csvDir   = flag.String("csv", "", "also write figure data as CSV into this directory")
		plot     = flag.Bool("plot", false, "render figures as ASCII charts instead of data tables")
	)
	flag.Parse()
	if *all {
		*table1, *fig3a, *fig3b, *stats, *hijack, *adoption, *overhead = true, true, true, true, true, true, true
	}
	if !*table1 && !*fig3a && !*fig3b && !*stats && !*hijack && !*adoption && !*overhead {
		*table1, *stats = true, true
	}

	evaluate := func(date time.Time) experiments.Table1 {
		t := experiments.ComputeTable1(synth.Generate(synth.SnapshotParams(date).Scale(*scale)))
		t.Date = date
		return t
	}

	var headline experiments.Table1
	needHeadline := *table1 || *stats
	if needHeadline {
		start := time.Now()
		headline = evaluate(synth.Dates6_1()[7])
		log.Printf("experiments: 6/1 snapshot evaluated in %v", time.Since(start).Round(time.Millisecond))
	}
	if *table1 {
		fmt.Println("== Table 1: number of PDUs processed by routers (6/1/2017 dataset) ==")
		if *scale == 1.0 {
			if err := experiments.CompareToPaper(os.Stdout, headline); err != nil {
				log.Fatal(err)
			}
		} else if err := headline.Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}
	if *stats {
		fmt.Println("== §6 / §7.2 statistics ==")
		d := synth.Generate(synth.SnapshotParams(synth.Dates6_1()[7]).Scale(*scale))
		st := experiments.ComputeSection6(d, headline)
		if err := st.Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}
	for _, fig := range []struct {
		run  bool
		full bool
		name string
	}{{*fig3a, false, "fig3a"}, {*fig3b, true, "fig3b"}} {
		if !fig.run {
			continue
		}
		f := experiments.ComputeFigure3(fig.full, evaluate)
		if *plot {
			if err := f.RenderPlot(os.Stdout, 16); err != nil {
				log.Fatal(err)
			}
		} else if err := f.Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
		if *csvDir != "" {
			if err := writeCSV(*csvDir, fig.name, f); err != nil {
				log.Fatal(err)
			}
		}
	}
	if *hijack {
		fmt.Println("== §4/§5 hijack capture rates (1000-AS Gao-Rexford topology, 32 trials) ==")
		topo := bgpsim.Generate(bgpsim.GenerateParams{Seed: 2017, N: 1000})
		rates := bgpsim.RunAll(topo, 32)
		if err := bgpsim.RenderResults(os.Stdout, rates); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}
	if *overhead {
		fmt.Println("== §7.2 computational overhead ==")
		d := synth.Generate(synth.SnapshotParams(synth.Dates6_1()[7]).Scale(*scale))
		if err := experiments.RenderOverhead(os.Stdout, experiments.MeasureOverhead(d)); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}
	if *adoption {
		fmt.Println("== ROV adoption sweep (extension; 1000-AS topology, 8 trials) ==")
		topo := bgpsim.Generate(bgpsim.GenerateParams{Seed: 2017, N: 1000})
		shares := []float64{0, 0.1, 0.25, 0.5, 0.75, 1}
		for _, kind := range []bgpsim.ScenarioKind{bgpsim.SubprefixMinimalROA, bgpsim.ForgedOriginSubprefix} {
			pts := bgpsim.AdoptionSweep(topo, kind, shares, 8)
			if err := bgpsim.RenderAdoption(os.Stdout, kind, pts); err != nil {
				log.Fatal(err)
			}
		}
		fmt.Println()
	}
}

func writeCSV(dir, name string, f experiments.Figure3) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, name+".csv")
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	log.Printf("experiments: writing %s", path)
	return errors.Join(f.WriteCSV(out), out.Close())
}
