//go:build !race

package bgp_test

import (
	"runtime/debug"
	"testing"

	"repro/internal/bgp"
)

// TestNewTableAllocs is the gate on what building the paper-scale table
// allocates from an input without duplicates: the input's copy and the
// second route slab, which the Table keeps, the digit counts, the origins by
// rank and their counts, and the Table. A third route slab, or a comparison
// sort's scratch, fails it. The
// collector is off while it counts: a cycle a build starts adds to the count.
func TestNewTableAllocs(t *testing.T) {
	_, shuffled := paperTable()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if got := testing.AllocsPerRun(3, func() { bgp.NewTable(shuffled) }); got != 6 {
		t.Errorf("NewTable of %d routes: %v allocs, want 6", len(shuffled), got)
	}
}
