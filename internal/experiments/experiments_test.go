package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/synth"
)

func smallDataset() *synth.Dataset {
	return synth.Generate(synth.Params{
		Seed: 3, Singles: 300, SinglesV6: 30, SibC: 12, SibD: 4, Partial: 5,
		ROASingles: 60, ROASibC: 7, ROAStale: 6, ROAMinML: 5, ROAVulnML: 9,
		VulnExtras: 5, VulnBonus: 2, ROAOriginAS: 25,
	})
}

func TestComputeTable1Identities(t *testing.T) {
	d := smallDataset()
	tab := ComputeTable1(d)
	p := d.Params
	// Closed-form expectations from the generator's block algebra.
	wantToday := p.ROASingles + 3*p.ROASibC + 3*p.ROAStale + p.ROAMinML + p.ROAVulnML
	if tab.PDUs[Today] != wantToday {
		t.Errorf("Today = %d, want %d", tab.PDUs[Today], wantToday)
	}
	if got, want := tab.PDUs[TodayCompressed], wantToday-2*(p.ROASibC+p.ROAStale); got != want {
		t.Errorf("TodayCompressed = %d, want %d", got, want)
	}
	wantMin := p.ROASingles + 3*p.ROASibC + p.ROAStale + 3*p.ROAMinML + p.ROAVulnML*p.VulnExtras + p.VulnBonus
	if tab.PDUs[TodayMinimalNoML] != wantMin {
		t.Errorf("TodayMinimalNoML = %d, want %d", tab.PDUs[TodayMinimalNoML], wantMin)
	}
	if got, want := tab.PDUs[TodayMinimalCompressed], wantMin-2*(p.ROASibC+p.ROAMinML); got != want {
		t.Errorf("TodayMinimalCompressed = %d, want %d", got, want)
	}
	if tab.PDUs[FullMinimalNoML] != d.Table.Len() {
		t.Errorf("FullMinimalNoML = %d, want %d", tab.PDUs[FullMinimalNoML], d.Table.Len())
	}
	// Orderings that must always hold (the paper's qualitative shape).
	if !(tab.PDUs[TodayCompressed] < tab.PDUs[Today]) {
		t.Error("compression must shrink the status quo")
	}
	if !(tab.PDUs[TodayMinimalNoML] > tab.PDUs[Today]) {
		t.Error("minimal ROAs must cost PDUs today")
	}
	if !(tab.PDUs[TodayMinimalCompressed] < tab.PDUs[TodayMinimalNoML]) {
		t.Error("compression must help minimal ROAs")
	}
	if !(tab.PDUs[FullLowerBound] <= tab.PDUs[FullMinimalCompressed]) {
		t.Error("compressed full deployment must respect the lower bound")
	}
	if !(tab.PDUs[FullMinimalCompressed] < tab.PDUs[FullMinimalNoML]) {
		t.Error("compression must help full deployment")
	}
}

// TestTable1PaperScale pins Table 1's seven rows at the paper's scale, on
// the 6/1/2017 snapshot: the totals synth.go's closed forms give, which
// match PaperTable1 within one PDU a row.
func TestTable1PaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping the paper-scale Table 1")
	}
	want := [numScenarios]int{39949, 33615, 52745, 49307, 776945, 730007, 729370}
	got := ComputeTable1(synth.Generate(synth.Params6_1())).PDUs
	for s := Today; s < numScenarios; s++ {
		if got[s] != want[s] {
			t.Errorf("%s: %d PDUs, want %d", s, got[s], want[s])
		}
	}
}

func TestScenarioMetadata(t *testing.T) {
	secure := 0
	for s := Today; s < numScenarios; s++ {
		if s.String() == "" || strings.HasPrefix(s.String(), "Scenario(") {
			t.Errorf("missing label for %d", s)
		}
		if s.Secure() {
			secure++
		}
	}
	if secure != 4 {
		t.Errorf("4 scenarios are secure in Table 1, got %d", secure)
	}
	if !strings.Contains(Scenario(99).String(), "99") {
		t.Error("unknown scenario label")
	}
}

func TestSection6Stats(t *testing.T) {
	d := smallDataset()
	tab := ComputeTable1(d)
	st := ComputeSection6(d, tab)
	p := d.Params
	if st.PrefixesUsingML != p.ROAMinML+p.ROAVulnML {
		t.Errorf("PrefixesUsingML = %d", st.PrefixesUsingML)
	}
	if st.VulnerableML != p.ROAVulnML {
		t.Errorf("VulnerableML = %d", st.VulnerableML)
	}
	if st.VulnerableShare <= 0.5 {
		t.Errorf("VulnerableShare = %v, want 'almost all'", st.VulnerableShare)
	}
	if st.AdditionalPDUs != tab.PDUs[TodayMinimalNoML]-tab.PDUs[Today] {
		t.Error("AdditionalPDUs inconsistent")
	}
	if st.MaxCompression < st.AchievedCompression {
		t.Errorf("achieved %.4f beats the bound %.4f", st.AchievedCompression, st.MaxCompression)
	}
	var buf bytes.Buffer
	if err := st.Render(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"15.90%", "prefixes using maxLength", "measured"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("render missing %q:\n%s", want, buf.String())
		}
	}
}

func TestTable1Render(t *testing.T) {
	tab := ComputeTable1(smallDataset())
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Count(out, "\n") != int(numScenarios)+1 {
		t.Errorf("unexpected row count:\n%s", out)
	}
	if !strings.Contains(out, "lower bound") || !strings.Contains(out, "OK") {
		t.Errorf("render incomplete:\n%s", out)
	}
}

func TestFigure3(t *testing.T) {
	// Cheap evaluate: reuse one small dataset per date with a size nudge so
	// monotonicity is visible.
	n := 0
	eval := func(date time.Time) Table1 {
		n++
		p := smallDataset().Params
		p.Singles += n * 10
		tab := ComputeTable1(synth.Generate(p))
		tab.Date = date
		return tab
	}
	fig := ComputeFigure3(false, eval)
	if len(fig.Dates) != 8 || len(fig.Scenarios) != 4 {
		t.Fatalf("fig3a shape: %d dates, %d scenarios", len(fig.Dates), len(fig.Scenarios))
	}
	for _, s := range fig.Scenarios {
		if len(fig.Series[s]) != 8 {
			t.Fatalf("series %v has %d points", s, len(fig.Series[s]))
		}
	}
	figB := ComputeFigure3(true, eval)
	if len(figB.Scenarios) != 3 {
		t.Fatalf("fig3b should have 3 series")
	}
	// Full-deployment series grows with table size.
	ser := figB.Series[FullMinimalNoML]
	for i := 1; i < len(ser); i++ {
		if ser[i] < ser[i-1] {
			t.Errorf("series not monotone at %d: %v", i, ser)
		}
	}
	var buf bytes.Buffer
	if err := figB.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figure 3b") || !strings.Contains(buf.String(), "solid") {
		t.Errorf("figure render incomplete:\n%s", buf.String())
	}
	buf.Reset()
	if err := figB.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 9 { // header + 8 dates
		t.Errorf("CSV lines = %d:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[1], "2017-04-13,") {
		t.Errorf("first data row = %q", lines[1])
	}
}

func TestCompareToPaper(t *testing.T) {
	var buf bytes.Buffer
	if err := CompareToPaper(&buf, PaperTable1()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "+0.00%") {
		t.Errorf("self-comparison should be exact:\n%s", out)
	}
	if !strings.Contains(out, "39949") || !strings.Contains(out, "729371") {
		t.Errorf("paper values missing:\n%s", out)
	}
}
