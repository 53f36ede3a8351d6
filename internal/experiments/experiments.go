// Package experiments regenerates every table and figure of the paper's
// evaluation (§6–§7) from a dataset: the seven PDU-count scenarios of
// Table 1, the two timeline figures (Figure 3a/3b), and the §6 headline
// statistics. cmd/experiments prints them; bench_test.go times them.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/synth"
)

// Scenario identifies one Table 1 row.
type Scenario int

// Table 1 rows, in paper order.
const (
	Today Scenario = iota
	TodayCompressed
	TodayMinimalNoML
	TodayMinimalCompressed
	FullMinimalNoML
	FullMinimalCompressed
	FullLowerBound
	numScenarios
)

// String returns the paper's row label.
func (s Scenario) String() string {
	switch s {
	case Today:
		return "Today"
	case TodayCompressed:
		return "Today (compressed)"
	case TodayMinimalNoML:
		return "Today, minimal ROAs, no maxLength"
	case TodayMinimalCompressed:
		return "Today, minimal ROAs, with maxLength (compressed)"
	case FullMinimalNoML:
		return "Full deployment, minimal ROAs, no maxLength"
	case FullMinimalCompressed:
		return "Full deployment, minimal ROAs, with maxLength"
	case FullLowerBound:
		return "Full deployment, lower bound (max permissive ROAs)"
	default:
		return fmt.Sprintf("Scenario(%d)", int(s))
	}
}

// Secure reports the paper's "secure?" column: is the scenario immune to
// forged-origin subprefix hijacks by construction?
func (s Scenario) Secure() bool {
	switch s {
	case TodayMinimalNoML, TodayMinimalCompressed, FullMinimalNoML, FullMinimalCompressed:
		return true
	default:
		return false
	}
}

// Table1 holds the PDU count of every scenario for one dataset.
type Table1 struct {
	Date time.Time
	PDUs [numScenarios]int
}

// ComputeTable1 evaluates all seven scenarios. The same VRP-set pipeline
// (Minimalize → Compress) backs Figure 3, §6 and §7.2.
func ComputeTable1(d *synth.Dataset) Table1 {
	var t Table1
	t.PDUs[Today] = d.VRPs.Len()

	comp, _ := core.Compress(d.VRPs, core.Options{})
	t.PDUs[TodayCompressed] = comp.Len()

	minimal := core.Minimalize(d.VRPs, d.Table)
	t.PDUs[TodayMinimalNoML] = minimal.Len()

	minComp, _ := core.Compress(minimal, core.Options{})
	t.PDUs[TodayMinimalCompressed] = minComp.Len()

	full := core.FullDeploymentMinimal(d.Table)
	t.PDUs[FullMinimalNoML] = full.Len()

	fullComp, _ := core.Compress(full, core.Options{})
	t.PDUs[FullMinimalCompressed] = fullComp.Len()

	t.PDUs[FullLowerBound] = full.MaxPermissive().Len()
	return t
}

// Render writes Table 1 in the paper's layout.
func (t Table1) Render(w io.Writer) error {
	const width = 52
	if _, err := fmt.Fprintf(w, "%-*s %10s  %s\n", width, "scenario", "# PDUs", "secure?"); err != nil {
		return err
	}
	for s := Today; s < numScenarios; s++ {
		mark := "X" // vulnerable, following the paper's marks
		if s.Secure() {
			mark = "OK"
		}
		if _, err := fmt.Fprintf(w, "%-*s %10d  %s\n", width, s.String(), t.PDUs[s], mark); err != nil {
			return err
		}
	}
	return nil
}

// Section6Stats holds the §6 headline measurements.
type Section6Stats struct {
	Tuples              int     // status-quo PDU tuples ("39,949")
	PrefixesUsingML     int     // tuples with maxLength > length ("4630, about 12%")
	MLShare             float64 // the "12%"
	VulnerableML        int     // non-minimal among them
	VulnerableShare     float64 // the "84%"
	AdditionalPDUs      int     // minimal conversion growth ("13K", "+33%")
	AdditionalPDUsShare float64
	FullPairs           int     // BGP (prefix, AS) pairs ("777K")
	LowerBoundPDUs      int     // max-permissive bound ("729K")
	MaxCompression      float64 // the "6.2%" bound
	AchievedCompression float64 // compress_roas on full deployment ("6.1%")
	StatusQuoSaved      float64 // §7.2 "15.90%"
	MinimalSaved        float64 // §7.2 "6.5%"
	MinimalVsStatusQuo  float64 // §7.2 "23% more tuples than the status quo"
}

// ComputeSection6 derives the §6/§7.2 statistics from a Table 1 evaluation
// plus a vulnerability scan.
func ComputeSection6(d *synth.Dataset, t Table1) Section6Stats {
	rep := core.AnalyzeVulnerabilities(d.VRPs, d.Table, false)
	var st Section6Stats
	st.Tuples = t.PDUs[Today]
	st.PrefixesUsingML = rep.UsingMaxLength
	st.MLShare = rep.MaxLengthShare()
	st.VulnerableML = rep.Vulnerable
	st.VulnerableShare = rep.VulnerableShare()
	st.AdditionalPDUs = t.PDUs[TodayMinimalNoML] - t.PDUs[Today]
	if t.PDUs[Today] > 0 {
		st.AdditionalPDUsShare = float64(st.AdditionalPDUs) / float64(t.PDUs[Today])
	}
	st.FullPairs = t.PDUs[FullMinimalNoML]
	st.LowerBoundPDUs = t.PDUs[FullLowerBound]
	if st.FullPairs > 0 {
		st.MaxCompression = 1 - float64(st.LowerBoundPDUs)/float64(st.FullPairs)
		st.AchievedCompression = 1 - float64(t.PDUs[FullMinimalCompressed])/float64(st.FullPairs)
	}
	if t.PDUs[Today] > 0 {
		st.StatusQuoSaved = 1 - float64(t.PDUs[TodayCompressed])/float64(t.PDUs[Today])
		st.MinimalVsStatusQuo = float64(t.PDUs[TodayMinimalCompressed])/float64(t.PDUs[Today]) - 1
	}
	if t.PDUs[TodayMinimalNoML] > 0 {
		st.MinimalSaved = 1 - float64(t.PDUs[TodayMinimalCompressed])/float64(t.PDUs[TodayMinimalNoML])
	}
	return st
}

// Render writes the statistics with the paper's claimed values alongside.
func (s Section6Stats) Render(w io.Writer) error {
	rows := []struct {
		name, paper, measured string
	}{
		{"status-quo PDU tuples", "39,949", fmt.Sprintf("%d", s.Tuples)},
		{"prefixes using maxLength", "4630 (~12%)", fmt.Sprintf("%d (%.1f%%)", s.PrefixesUsingML, 100*s.MLShare)},
		{"  of those, vulnerable (non-minimal)", "84%", fmt.Sprintf("%d (%.1f%%)", s.VulnerableML, 100*s.VulnerableShare)},
		{"additional PDUs for minimal ROAs", "13K (+33%)", fmt.Sprintf("%d (+%.1f%%)", s.AdditionalPDUs, 100*s.AdditionalPDUsShare)},
		{"full-deployment (prefix,AS) pairs", "776,945", fmt.Sprintf("%d", s.FullPairs)},
		{"max-permissive lower bound", "729,371", fmt.Sprintf("%d", s.LowerBoundPDUs)},
		{"maxLength max compression", "6.2%", fmt.Sprintf("%.1f%%", 100*s.MaxCompression)},
		{"compress_roas achieved (full)", "6.1%", fmt.Sprintf("%.1f%%", 100*s.AchievedCompression)},
		{"status-quo compression (§7.2)", "15.90%", fmt.Sprintf("%.2f%%", 100*s.StatusQuoSaved)},
		{"minimal-ROA compression (§7.2)", "6.5%", fmt.Sprintf("%.1f%%", 100*s.MinimalSaved)},
		{"minimal compressed vs status quo", "+23%", fmt.Sprintf("%+.1f%%", 100*s.MinimalVsStatusQuo)},
	}
	if _, err := fmt.Fprintf(w, "%-40s %14s %20s\n", "statistic", "paper", "measured"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%-40s %14s %20s\n", r.name, r.paper, r.measured); err != nil {
			return err
		}
	}
	return nil
}

// Figure3 holds one timeline: the PDU counts of selected scenarios per
// weekly snapshot.
type Figure3 struct {
	Title     string
	Scenarios []Scenario
	Dates     []time.Time
	Series    map[Scenario][]int
}

// Figure3Scenarios lists the series of each subfigure.
func Figure3Scenarios(full bool) []Scenario {
	if full {
		// Figure 3b.
		return []Scenario{FullMinimalNoML, FullMinimalCompressed, FullLowerBound}
	}
	// Figure 3a.
	return []Scenario{Today, TodayCompressed, TodayMinimalNoML, TodayMinimalCompressed}
}

// ComputeFigure3 evaluates a timeline over the paper's weekly snapshot
// dates. With full=false it produces Figure 3a, otherwise Figure 3b.
// The evaluate callback lets tests substitute cheaper datasets; pass nil to
// use the calibrated snapshots.
func ComputeFigure3(full bool, evaluate func(date time.Time) Table1) Figure3 {
	if evaluate == nil {
		evaluate = func(date time.Time) Table1 {
			t := ComputeTable1(synth.Generate(synth.SnapshotParams(date)))
			t.Date = date
			return t
		}
	}
	fig := Figure3{
		Scenarios: Figure3Scenarios(full),
		Dates:     synth.Dates6_1(),
		Series:    make(map[Scenario][]int),
	}
	if full {
		fig.Title = "Figure 3b: RPKI in full deployment"
	} else {
		fig.Title = "Figure 3a: Today's RPKI deployment"
	}
	for _, date := range fig.Dates {
		t := evaluate(date)
		for _, s := range fig.Scenarios {
			fig.Series[s] = append(fig.Series[s], t.PDUs[s])
		}
	}
	return fig
}

// Render writes the figure as an aligned data table (one row per series,
// one column per date) — the series the paper plots.
func (f Figure3) Render(w io.Writer) error {
	if _, err := fmt.Fprintln(w, f.Title); err != nil {
		return err
	}
	var head strings.Builder
	fmt.Fprintf(&head, "%-52s", "series (solid = safe, dashed = vulnerable)")
	for _, d := range f.Dates {
		fmt.Fprintf(&head, " %8s", d.Format("1/2"))
	}
	if _, err := fmt.Fprintln(w, head.String()); err != nil {
		return err
	}
	for _, s := range f.Scenarios {
		var row strings.Builder
		style := "dashed"
		if s.Secure() {
			style = "solid"
		}
		fmt.Fprintf(&row, "%-52s", fmt.Sprintf("%s [%s]", s, style))
		for _, v := range f.Series[s] {
			fmt.Fprintf(&row, " %8d", v)
		}
		if _, err := fmt.Fprintln(w, row.String()); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV emits the figure in a gnuplot-friendly CSV layout.
func (f Figure3) WriteCSV(w io.Writer) error {
	cols := []string{"date"}
	for _, s := range f.Scenarios {
		cols = append(cols, s.String())
	}
	if _, err := fmt.Fprintln(w, strings.Join(cols, ",")); err != nil {
		return err
	}
	for i, d := range f.Dates {
		row := []string{d.Format("2006-01-02")}
		for _, s := range f.Scenarios {
			row = append(row, fmt.Sprintf("%d", f.Series[s][i]))
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

// PaperTable1 returns the published 6/1/2017 Table 1 values, for
// paper-vs-measured reporting.
func PaperTable1() Table1 {
	var t Table1
	t.PDUs = [numScenarios]int{39949, 33615, 52745, 49308, 776945, 730008, 729371}
	return t
}

// CompareToPaper renders measured vs published values with relative error.
func CompareToPaper(w io.Writer, measured Table1) error {
	paper := PaperTable1()
	if _, err := fmt.Fprintf(w, "%-52s %10s %10s %8s\n", "scenario", "paper", "measured", "err"); err != nil {
		return err
	}
	for s := Today; s < numScenarios; s++ {
		p, m := paper.PDUs[s], measured.PDUs[s]
		errPct := 100 * (float64(m) - float64(p)) / float64(p)
		if _, err := fmt.Fprintf(w, "%-52s %10d %10d %+7.2f%%\n", s.String(), p, m, errPct); err != nil {
			return err
		}
	}
	return nil
}
