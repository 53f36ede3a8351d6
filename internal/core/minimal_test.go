package core

import (
	"testing"

	"repro/internal/bgp"
	"repro/internal/rpki"
	"repro/internal/synth"
)

// paperTable is the running example of §2–§5: AS 111 announces its /16 and
// one /24; AS 31283 de-aggregates per Figure 2.
func paperTable() *bgp.Table {
	return bgp.NewTable([]bgp.Route{
		{Prefix: mp("168.122.0.0/16"), Origin: 111},
		{Prefix: mp("168.122.225.0/24"), Origin: 111},
		{Prefix: mp("87.254.32.0/19"), Origin: 31283},
		{Prefix: mp("87.254.32.0/20"), Origin: 31283},
		{Prefix: mp("87.254.48.0/20"), Origin: 31283},
		{Prefix: mp("87.254.32.0/21"), Origin: 31283},
	})
}

func TestMinimalizeRunningExample(t *testing.T) {
	// The non-minimal ROA (168.122.0.0/16-24, AS 111) of §4 minimalizes to
	// exactly the two announced prefixes — the §3 "alternate solution" ROA.
	in := rpki.NewSet([]rpki.VRP{v("168.122.0.0/16", 24, 111)})
	min := Minimalize(in, paperTable())
	want := rpki.NewSet([]rpki.VRP{
		v("168.122.0.0/16", 16, 111),
		v("168.122.225.0/24", 24, 111),
	})
	if !min.Equal(want) {
		t.Fatalf("Minimalize = %v, want %v", min.VRPs(), want.VRPs())
	}
	if ok, w := IsMinimal(min, paperTable()); !ok {
		t.Fatalf("minimalized set not minimal, witness %v", w)
	}
}

func TestMinimalizeDropsUnusedROA(t *testing.T) {
	in := rpki.NewSet([]rpki.VRP{
		v("203.0.113.0/24", 32, 9999), // nothing announced under it
		v("168.122.0.0/16", 16, 111),
	})
	min := Minimalize(in, paperTable())
	if min.Len() != 1 || min.VRPs()[0].AS != 111 {
		t.Fatalf("Minimalize = %v", min.VRPs())
	}
}

func TestMinimalizeWrongOriginExcluded(t *testing.T) {
	// A ROA authorizing AS 112 over 168.122.0.0/16 covers announced space,
	// but none of it is announced BY 112 — the minimal ROA is empty.
	in := rpki.NewSet([]rpki.VRP{v("168.122.0.0/16", 24, 112)})
	if min := Minimalize(in, paperTable()); min.Len() != 0 {
		t.Fatalf("Minimalize = %v", min.VRPs())
	}
}

func TestIsMinimal(t *testing.T) {
	tbl := paperTable()
	minimal := rpki.NewSet([]rpki.VRP{
		v("168.122.0.0/16", 16, 111),
		v("168.122.225.0/24", 24, 111),
	})
	if ok, w := IsMinimal(minimal, tbl); !ok {
		t.Fatalf("minimal set reported non-minimal: %v", w)
	}
	// The §4 non-minimal ROA: witness must be an unannounced authorized route.
	nonMinimal := rpki.NewSet([]rpki.VRP{v("168.122.0.0/16", 24, 111)})
	ok, w := IsMinimal(nonMinimal, tbl)
	if ok || w == nil {
		t.Fatal("non-minimal set reported minimal")
	}
	if !mp("168.122.0.0/16").Contains(w.Prefix) || w.Prefix.Len() > 24 {
		t.Errorf("witness %v outside authorized range", w)
	}
	if tbl.Contains(w.Prefix, w.AS) {
		t.Errorf("witness %v is announced", w)
	}
	// Compressed minimal ROAs stay minimal (the §7 guarantee).
	figure2 := rpki.NewSet([]rpki.VRP{
		v("87.254.32.0/19", 19, 31283),
		v("87.254.32.0/20", 20, 31283),
		v("87.254.48.0/20", 20, 31283),
		v("87.254.32.0/21", 21, 31283),
	})
	compressed, _ := Compress(figure2, Options{})
	if ok, w := IsMinimal(compressed, tbl); !ok {
		t.Fatalf("compressed minimal ROAs not minimal: witness %v", w)
	}
}

func TestFullDeploymentMinimal(t *testing.T) {
	tbl := paperTable()
	s := FullDeploymentMinimal(tbl)
	if s.Len() != tbl.Len() {
		t.Fatalf("full deployment minimal has %d tuples, want %d", s.Len(), tbl.Len())
	}
	for _, x := range s.VRPs() {
		if x.UsesMaxLength() {
			t.Fatalf("tuple %v uses maxLength", x)
		}
	}
	if ok, w := IsMinimal(s, tbl); !ok {
		t.Fatalf("not minimal: %v", w)
	}
}

// TestFullDeploymentMinimalCanonical pins FullDeploymentMinimal, which reads
// the table's (origin, prefix) order and sorts nothing, to the path it
// replaced: every route's tuple, in prefix order, normalized by rpki.NewSet.
// The hand-built table has one prefix announced by three origins and both
// families, its routes given in no order; synth's is the 6/1/2017 table at a
// fiftieth of its scale.
func TestFullDeploymentMinimalCanonical(t *testing.T) {
	hand := bgp.NewTable([]bgp.Route{
		{Prefix: mp("2001:db8::/32"), Origin: 64500},
		{Prefix: mp("192.0.2.0/24"), Origin: 64502},
		{Prefix: mp("10.0.0.0/8"), Origin: 64501},
		{Prefix: mp("192.0.2.0/24"), Origin: 64500},
		{Prefix: mp("2001:db8:1::/48"), Origin: 64500},
		{Prefix: mp("10.1.0.0/16"), Origin: 64501},
		{Prefix: mp("192.0.2.0/24"), Origin: 64501},
		{Prefix: mp("2001:db8::/32"), Origin: 64499},
		{Prefix: mp("10.0.0.0/8"), Origin: 64500},
	})
	for _, tc := range []struct {
		name  string
		table *bgp.Table
	}{{"hand-built", hand}, {"synth/0.02", synth.Generate(synth.Params6_1().Scale(0.02)).Table}} {
		var vrps []rpki.VRP
		for _, r := range tc.table.Routes() {
			vrps = append(vrps, rpki.VRP{Prefix: r.Prefix, MaxLength: r.Prefix.Len(), AS: r.Origin})
		}
		if got, want := FullDeploymentMinimal(tc.table), rpki.NewSet(vrps); !got.Equal(want) {
			t.Errorf("%s: FullDeploymentMinimal holds %d tuples, the NewSet path %d, or in another order", tc.name, got.Len(), want.Len())
		}
	}
}

func TestFullDeploymentLowerBound(t *testing.T) {
	full := FullDeploymentMinimal(paperTable())
	lb := full.MaxPermissive()
	// AS 111: /24 under announced /16 drops. AS 31283: /20,/20,/21 under /19
	// drop. 6 routes -> 2 tuples.
	if lb.Len() != 2 {
		t.Fatalf("lower bound = %v", lb.VRPs())
	}
	comp, _ := Compress(full, Options{})
	if comp.Len() < lb.Len() {
		t.Fatalf("compression (%d) beat the lower bound (%d)", comp.Len(), lb.Len())
	}
}

func TestMinimalizePlusCompressEquivalence(t *testing.T) {
	// End-to-end §7.2 pipeline on the running example: minimalize, compress,
	// verify minimality and semantic equality with the uncompressed minimal.
	tbl := paperTable()
	status := rpki.NewSet([]rpki.VRP{
		v("168.122.0.0/16", 24, 111),
		v("87.254.32.0/19", 21, 31283),
	})
	min := Minimalize(status, tbl)
	comp, res := Compress(min, Options{})
	if err := VerifyCompression(min, comp); err != nil {
		t.Fatal(err)
	}
	if ok, w := IsMinimal(comp, tbl); !ok {
		t.Fatalf("compressed not minimal: %v", w)
	}
	if res.Out > res.In {
		t.Fatalf("compression grew: %+v", res)
	}
	// AS 31283's four tuples must compress to two (Figure 2).
	count := 0
	for _, x := range comp.VRPs() {
		if x.AS == 31283 {
			count++
		}
	}
	if count != 2 {
		t.Errorf("AS 31283 compressed to %d tuples, want 2: %v", count, comp.VRPs())
	}
}
