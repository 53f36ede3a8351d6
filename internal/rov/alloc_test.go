//go:build !race

package rov

import "testing"

// TestValidateAllocs is the dynamic counterpart of reprolint's hotalloc: every
// //repro:noalloc entry point reachable from outside the package, and the
// batch forms with a pre-sized dst, must run at exactly 0 allocs over a
// 50k-VRP table — the LiveIndex ones also over today's table under an
// overlay of a thousand touched prefixes, where each route is tested against
// it and a quarter of them go to the bit trie. Not built under -race, whose
// instrumentation allocates.
func TestValidateAllocs(t *testing.T) {
	set := benchSet()
	ix := NewIndex(set)
	cx := NewCompactIndex(set)
	live := NewLiveIndex(set)
	routes := benchRoutes(8192)
	dst := make([]State, len(routes))
	r := routes[0]
	overlaid := liveWithOverlay(t, routes, 0.25)
	if st := overlaid.Stats(); st.Marks < 1000 {
		t.Fatalf("overlay of %d marks, want at least 1000", st.Marks)
	}

	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"Index.Validate", func() { ix.Validate(r.Prefix, r.Origin) }},
		{"CompactIndex.Validate", func() { cx.Validate(r.Prefix, r.Origin) }},
		{"CompactIndex.ValidateBatch", func() { cx.ValidateBatch(routes, dst) }},
		{"LiveIndex.Validate", func() { live.Validate(r.Prefix, r.Origin) }},
		{"LiveIndex.ValidateBatch", func() { live.ValidateBatch(routes, dst) }},
		{"LiveIndex.Validate under an overlay, a touched route", func() { overlaid.Validate(r.Prefix, r.Origin) }},
		{"LiveIndex.Validate under an overlay, the last route", func() { overlaid.Validate(routes[8191].Prefix, routes[8191].Origin) }},
		{"LiveIndex.ValidateBatch under an overlay", func() { overlaid.ValidateBatch(routes, dst) }},
	} {
		if got := testing.AllocsPerRun(10, tc.fn); got != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, got)
		}
	}
}
