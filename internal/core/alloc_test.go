//go:build !race

package core

import (
	"testing"

	"repro/internal/rpki"
)

// TestAllocCeilings pins the allocation counts of the relying-party kernels
// on the bench_test fixtures: Compress and the verifier build no trie and
// allocate per result, never per group or per VRP, so these are small
// constants independent of the 2000-VRP input. They are exact, so a group list, a copy
// of Compress's output, or a heap-allocated stack in SemanticEqual's walk,
// put back, fails them. Not built under -race, whose instrumentation
// allocates.
func TestAllocCeilings(t *testing.T) {
	s := rpki.NewSet(benchVRPs(2000))
	out, _ := Compress(s, Options{})
	same := s.Clone()

	for _, tc := range []struct {
		name string
		max  float64
		fn   func()
	}{
		{"SemanticEqual", 0, func() { SemanticEqual(s, out) }},            // the walk's stacks live in its frame
		{"SemanticEqual/identical", 0, func() { SemanticEqual(s, same) }}, // one lockstep read
		{"Compress/Strict", 10, func() { Compress(s, Options{}) }},
		{"Compress/Subsumption", 10, func() { Compress(s, Options{Subsumption: true}) }},
	} {
		if got := testing.AllocsPerRun(10, tc.fn); got > tc.max {
			t.Errorf("%s: %v allocs/op, want <= %v", tc.name, got, tc.max)
		}
	}
}
