package rov

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/prefix"
	"repro/internal/rpki"
)

// slotEdgeTable is a fixed table at the lengths the radix root treats apart,
// in both families: /0 and /8, a /15 over two slots, /16s, a /17 and /24s in
// them, a slot alone under its pages (200.200/16), the last slot of a
// family, and IPv6 keys past 32 bits. Today's table has no VRP shorter than
// /16, so nothing else exercises the short-prefix trie against the slots
// beside it.
func slotEdgeTable() []rpki.VRP {
	var out []rpki.VRP
	for i, s := range []string{
		"0.0.0.0/0", "10.0.0.0/8", "10.0.0.0/15", "10.1.0.0/16", "10.1.128.0/17", "10.1.2.0/24",
		"10.2.0.0/16", "11.0.0.0/15", "11.1.0.0/16", "200.200.0.0/16", "255.255.0.0/16", "255.255.255.0/24",
		"::/0", "2000::/8", "2000::/15", "2001::/16", "2001:8000::/17", "2001:db8::/32",
		"2001:db8:0:1::/64", "2001:db8::1/128", "2a00::/16", "ffff::/16", "ffff:ffff::/32",
	} {
		p := mp(s)
		out = append(out, rpki.VRP{Prefix: p, MaxLength: min(p.Len()+8, p.MaxLen()), AS: rpki.ASN(64500 + i%5)})
	}
	return out
}

// slotEdgeProbes returns routes around every VRP of vrps and at both edges of
// every slot they touch, with each VRP's origin and another.
func slotEdgeProbes(vrps []rpki.VRP) []Route {
	out := probesAround(vrps)
	for _, v := range vrps {
		if v.Prefix.Len() < radixBits {
			continue
		}
		hi, _ := v.Prefix.Bits()
		base := hi &^ (1<<(64-radixBits) - 1)
		for _, a := range []uint64{base, base | (1<<(64-radixBits)-1)&^0xff} {
			for _, l := range []uint8{15, 16, 17, 24} {
				p, err := prefix.Make(v.Prefix.Family(), a, 0, l)
				if err != nil {
					panic(err)
				}
				out = append(out, Route{Prefix: p, Origin: v.AS}, Route{Prefix: p, Origin: v.AS + 9})
			}
		}
	}
	return out
}

// checkReference fails unless ix holds exactly vrps and answers every probe
// as the Reference does, through Validate and ValidateBatch.
func checkReference(t *testing.T, name string, ix *Index, vrps []rpki.VRP, probes []Route) {
	t.Helper()
	set := rpki.NewSet(vrps)
	if extra, missing := naiveSetDiff(set.VRPs(), ix.AppendVRPs(nil)); len(extra)+len(missing) != 0 {
		t.Fatalf("%s: %v extra, %v missing", name, extra, missing)
	}
	ref := NewReference(set)
	batch := ix.ValidateBatch(probes, nil)
	for i, q := range probes {
		want := ref.Validate(q.Prefix, q.Origin)
		if got := ix.Validate(q.Prefix, q.Origin); got != want || batch[i] != want {
			t.Fatalf("%s: Validate(%s, %v) = %v, ValidateBatch %v, Reference %v", name, q.Prefix, q.Origin, got, batch[i], want)
		}
	}
}

// TestShortPrefixesAndSlotEdges holds the radix root's seams to the Reference
// on slotEdgeTable: every build order (the trie's pre-order, a Set's AS-major,
// reversed, shuffled, the families interleaved); a delta that withdraws a
// slot's only VRP, which must drop the slot's pages, then one that refills
// the slot; deltas that bring each family its first short prefix; Diff both
// ways within one lineage and across lineages; and VisitVRPs in diffOrder
// (checkSameTable). Every snapshot the table publishes is in shape.
func TestShortPrefixesAndSlotEdges(t *testing.T) {
	table := slotEdgeTable()
	probes := slotEdgeProbes(table)
	want := newIndexFromVRPs(table, nil)
	for name, vrps := range buildOrders(table, 11) {
		ix := newIndexFromVRPs(vrps, nil)
		checkShape(t, name, ix)
		checkSameTable(t, name, ix, want)
		checkReference(t, name, ix, table, probes)
	}

	short := func(v rpki.VRP) bool { return v.Prefix.Len() < radixBits }
	long := slices.DeleteFunc(slices.Clone(table), short)
	tab := NewTable(long) // no short prefix in either family
	shapes := checkShapes(t, tab)
	state := slices.Clone(long)
	snaps, tables := []*Index{tab.Snapshot()}, [][]rpki.VRP{slices.Clone(state)}
	step := func(name string, announce, withdraw []rpki.VRP) {
		t.Helper()
		pathCopy(tab, announce, withdraw)
		shapes()
		state = append(slices.DeleteFunc(state, func(v rpki.VRP) bool { return slices.Contains(withdraw, v) }), announce...)
		snaps, tables = append(snaps, tab.Snapshot()), append(tables, slices.Clone(state))
		checkReference(t, name, tab.Snapshot(), state, probes)
		checkParentDiff(t, name, snaps[len(snaps)-2], snaps[len(snaps)-1])
		checkNodeGarbage(t, tab)
	}
	// Slot 10.2 shares its pages with 10.1; slot 200.200 has its three pages
	// below the top to itself, and they must go with its only VRP.
	for _, c := range []struct {
		only, refill string
		dropped      bool
	}{{"10.2.0.0/16", "10.2.128.0/17", false}, {"200.200.0.0/16", "200.200.255.0/24", true}} {
		i := slices.IndexFunc(state, func(v rpki.VRP) bool { return v.Prefix == mp(c.only) })
		pages := len(tab.Snapshot().fams[0].pages)
		_, gp, _ := garbage(tab)
		step(c.only+", its slot's only VRP, withdrawn", nil, []rpki.VRP{state[i]})
		f, p := &tab.Snapshot().fams[0], mp(c.only)
		hi, _ := p.Bits()
		if leaf := f.leaf(uint32(hi >> 48)); f.slotRoot(p) != 0 || (leaf == 0) != c.dropped {
			t.Fatalf("%s withdrawn: slot root %d, leaf page %d; want none, and the leaf dropped: %v", c.only, f.slotRoot(p), leaf, c.dropped)
		}
		dead := 4 // the four pages the delta copied
		if c.dropped {
			dead += 3 // and its copies of the slot's own three
		}
		if _, gp2, _ := garbage(tab); gp2-gp != dead || len(f.pages)-pages != 4 {
			t.Fatalf("%s withdrawn: %d pages copied and %d more garbage, want 4 and %d", c.only, len(f.pages)-pages, gp2-gp, dead)
		}
		step("its slot refilled", []rpki.VRP{{Prefix: mp(c.refill), MaxLength: 24, AS: 64501}}, nil)
	}
	for _, fam := range []prefix.Family{prefix.IPv4, prefix.IPv6} {
		var first []rpki.VRP
		for _, v := range table {
			if short(v) && v.Prefix.Family() == fam {
				first = append(first, v)
			}
		}
		step(fmt.Sprintf("the %v family's first short prefixes", fam), first, nil)
	}
	checkSameTable(t, "the table after its deltas", tab.Snapshot(), newIndexFromVRPs(state, nil))

	// Diff both ways: within one lineage, every pair of kept snapshots; across
	// lineages, each against an independent build of the other's table.
	for i := range snaps {
		for j := range snaps {
			if i != j {
				checkDiffAgainstNaive(t, snaps[i], snaps[j])
				checkDiffAgainstNaive(t, newIndexFromVRPs(tables[i], nil), snaps[j])
			}
		}
	}
}
