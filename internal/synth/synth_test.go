package synth

import (
	"testing"

	"repro/internal/core"
	"repro/internal/prefix"
	"repro/internal/rpki"
)

// smallParams keeps unit tests fast while exercising every block kind.
func smallParams() Params {
	return Params{
		Seed:        7,
		Singles:     200,
		SinglesV6:   20,
		SibC:        10,
		SibD:        5,
		Partial:     4,
		ROASingles:  50,
		ROASibC:     6,
		ROAStale:    5,
		ROAMinML:    4,
		ROAVulnML:   8,
		VulnExtras:  5,
		VulnBonus:   2,
		ROAOriginAS: 20,
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, b := Generate(smallParams()), Generate(smallParams())
	if a.Table.Len() != b.Table.Len() || !a.VRPs.Equal(b.VRPs) {
		t.Fatal("generator is not deterministic")
	}
	for i, r := range a.Table.Routes() {
		if r != b.Table.Routes()[i] {
			t.Fatalf("route %d differs: %v vs %v", i, r, b.Table.Routes()[i])
		}
	}
}

func TestGeneratedCounts(t *testing.T) {
	p := smallParams()
	d := Generate(p)
	wantRoutes := p.Singles + p.SinglesV6 + 3*p.SibC + 7*p.SibD + 2*p.Partial +
		p.ROASingles + 3*p.ROASibC + p.ROAStale + 3*p.ROAMinML +
		p.ROAVulnML*p.VulnExtras + p.VulnBonus
	if d.Table.Len() != wantRoutes {
		t.Errorf("routes = %d, want %d", d.Table.Len(), wantRoutes)
	}
	wantTuples := p.ROASingles + 3*p.ROASibC + 3*p.ROAStale + p.ROAMinML + p.ROAVulnML
	if d.VRPs.Len() != wantTuples {
		t.Errorf("tuples = %d, want %d", d.VRPs.Len(), wantTuples)
	}
	if len(d.ROAs) != p.ROAOriginAS {
		t.Errorf("ROAs = %d, want %d", len(d.ROAs), p.ROAOriginAS)
	}
	for _, r := range d.ROAs {
		if err := r.Validate(); err != nil {
			t.Fatalf("generated ROA invalid: %v", err)
		}
	}
	st := d.VRPs.ComputeStats()
	if st.UsingMaxLength != p.ROAMinML+p.ROAVulnML {
		t.Errorf("UsingMaxLength = %d, want %d", st.UsingMaxLength, p.ROAMinML+p.ROAVulnML)
	}
}

func TestGeneratedBlocksDisjoint(t *testing.T) {
	d := Generate(smallParams())
	// No announced prefix may contain another announced prefix of a
	// *different* AS (blocks are disjoint; structure is intra-AS only).
	routes := d.Table.Routes()
	for i, a := range routes {
		for _, b := range routes[i+1:] {
			if (a.Prefix.Contains(b.Prefix) || b.Prefix.Contains(a.Prefix)) && a.Origin != b.Origin {
				t.Fatalf("cross-AS overlap: %v and %v", a, b)
			}
		}
	}
}

func TestGeneratedStructure(t *testing.T) {
	p := smallParams()
	d := Generate(p)
	st := d.Table.ComputeDeaggStats()
	// Full sibling parents: SibC + 2-level SibD contributes 3 each (base and
	// both children) + ROASibC + ROAMinML.
	want := p.SibC + 3*p.SibD + p.ROASibC + p.ROAMinML
	if st.FullSiblingParents != want {
		t.Errorf("FullSiblingParents = %d, want %d", st.FullSiblingParents, want)
	}
	// Covered routes: 2 per SibC, 6 per SibD, 1 per Partial, 2 per ROASibC,
	// 2 per ROAMinML.
	wantCovered := 2*p.SibC + 6*p.SibD + p.Partial + 2*p.ROASibC + 2*p.ROAMinML
	if st.SubprefixRoutes != wantCovered {
		t.Errorf("SubprefixRoutes = %d, want %d", st.SubprefixRoutes, wantCovered)
	}
}

func TestGeneratedVulnerabilityShape(t *testing.T) {
	p := smallParams()
	d := Generate(p)
	rep := core.AnalyzeVulnerabilities(d.VRPs, d.Table, false)
	if rep.UsingMaxLength != p.ROAMinML+p.ROAVulnML {
		t.Errorf("UsingMaxLength = %d", rep.UsingMaxLength)
	}
	if rep.Vulnerable != p.ROAVulnML {
		t.Errorf("Vulnerable = %d, want %d (only the non-minimal ML tuples)", rep.Vulnerable, p.ROAVulnML)
	}
	if rep.Effective != p.ROAVulnML {
		t.Errorf("Effective = %d, want %d (holes always remain)", rep.Effective, p.ROAVulnML)
	}
}

func TestGeneratedCompressionShape(t *testing.T) {
	p := smallParams()
	d := Generate(p)

	// Status quo compression: 2 saved per ROASibC and per ROAStale family.
	comp, res := core.Compress(d.VRPs, core.Options{})
	wantSaved := 2 * (p.ROASibC + p.ROAStale)
	if res.In-res.Out != wantSaved {
		t.Errorf("status quo compression saved %d, want %d", res.In-res.Out, wantSaved)
	}
	if err := core.VerifyCompression(d.VRPs, comp); err != nil {
		t.Fatal(err)
	}

	// Minimal conversion counts.
	min := core.Minimalize(d.VRPs, d.Table)
	wantMin := p.ROASingles + 3*p.ROASibC + p.ROAStale + 3*p.ROAMinML +
		p.ROAVulnML*p.VulnExtras + p.VulnBonus
	if min.Len() != wantMin {
		t.Errorf("minimal pairs = %d, want %d", min.Len(), wantMin)
	}
	for _, v := range min.VRPs() {
		if v.UsesMaxLength() {
			t.Fatalf("minimal set uses maxLength: %v", v)
		}
	}
	// Compressed minimal: saves 2 per ROASibC + per ROAMinML family.
	_, res2 := core.Compress(min, core.Options{})
	wantSaved2 := 2 * (p.ROASibC + p.ROAMinML)
	if res2.In-res2.Out != wantSaved2 {
		t.Errorf("minimal compression saved %d, want %d", res2.In-res2.Out, wantSaved2)
	}

	// Full deployment.
	full := core.FullDeploymentMinimal(d.Table)
	if full.Len() != d.Table.Len() {
		t.Fatalf("full deployment tuples = %d, want %d", full.Len(), d.Table.Len())
	}
	_, res3 := core.Compress(full, core.Options{})
	wantSaved3 := 2*(p.SibC+p.ROASibC+p.ROAMinML) + 6*p.SibD
	if res3.In-res3.Out != wantSaved3 {
		t.Errorf("full-deployment compression saved %d, want %d", res3.In-res3.Out, wantSaved3)
	}
	lb := full.MaxPermissive()
	wantLB := d.Table.Len() - (2*(p.SibC+p.ROASibC+p.ROAMinML) + 6*p.SibD + p.Partial)
	if lb.Len() != wantLB {
		t.Errorf("lower bound = %d, want %d", lb.Len(), wantLB)
	}
	if lb.Len() > res3.Out {
		t.Errorf("lower bound %d exceeds compressed size %d", lb.Len(), res3.Out)
	}
}

func TestScaleAndSnapshots(t *testing.T) {
	p := Params6_1()
	half := p.Scale(0.5)
	if half.Singles != (p.Singles+1)/2 && half.Singles != p.Singles/2 {
		t.Errorf("Scale halving wrong: %d", half.Singles)
	}
	if half.VulnExtras != p.VulnExtras {
		t.Error("Scale must not change per-tuple knobs")
	}
	dates := Dates6_1()
	if len(dates) != 8 {
		t.Fatalf("dates = %v", dates)
	}
	prev := 0
	for _, d := range dates {
		sp := SnapshotParams(d)
		total := sp.Singles + sp.ROASingles
		if total <= 0 || total < prev {
			t.Errorf("snapshot %v not monotone: %d < %d", d, total, prev)
		}
		prev = total
	}
	if SnapshotParams(dates[7]) != Params6_1() {
		t.Error("6/1 snapshot must equal the headline calibration")
	}
}

func TestPermuterBijective(t *testing.T) {
	p := newPermuter(99)
	seen := make(map[uint64]bool, 1<<16)
	for i := uint64(0); i < 1<<16; i++ {
		v := p.permute20(i)
		if v >= 1<<20 {
			t.Fatalf("permute20(%d) = %d out of range", i, v)
		}
		if seen[v] {
			t.Fatalf("collision at %d", i)
		}
		seen[v] = true
	}
	seen29 := make(map[uint64]bool, 1<<16)
	for i := uint64(0); i < 1<<16; i++ {
		v := p.permute29(i)
		if v >= 1<<29 {
			t.Fatalf("permute29(%d) = %d out of range", i, v)
		}
		if seen29[v] {
			t.Fatalf("29-bit collision at %d", i)
		}
		seen29[v] = true
	}
}

func TestSummary(t *testing.T) {
	d := Generate(smallParams())
	if s := d.Summary(); len(s) == 0 {
		t.Error("empty summary")
	}
}

func TestROAOriginASDefaulting(t *testing.T) {
	p := smallParams()
	p.ROAOriginAS = 0
	d := Generate(p) // must not panic (mod by zero guard)
	if len(d.ROAs) != 1 {
		t.Errorf("ROAs = %d, want 1", len(d.ROAs))
	}
}

func TestGeneratedIPv6(t *testing.T) {
	d := Generate(smallParams())
	v6 := 0
	for _, r := range d.Table.Routes() {
		if r.Prefix.Family() == prefix.IPv6 {
			v6++
			if r.Prefix.Len() != 32 {
				t.Errorf("v6 route %v not a /32", r)
			}
		}
	}
	if v6 != smallParams().SinglesV6 {
		t.Errorf("v6 routes = %d", v6)
	}
}

func TestDatesExact(t *testing.T) {
	d := Dates6_1()
	if d[0].Month() != 4 || d[0].Day() != 13 || d[7].Month() != 6 || d[7].Day() != 1 {
		t.Errorf("date range wrong: %v .. %v", d[0], d[7])
	}
}

var _ = rpki.ASN(0)
