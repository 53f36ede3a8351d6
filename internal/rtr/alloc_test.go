//go:build !race

package rtr

import (
	"bufio"
	"runtime/debug"
	"testing"

	"repro/internal/rov"
	"repro/internal/rpki"
)

// TestSerialAnswerAllocs pins the Serial Query answer at the allocations of
// the diff it is made of plus a constant: 5,000 Prefix PDUs wrap the
// connection's 4 KiB buffer two dozen times, and each PDU is encoded in the
// buffer's spare capacity whether or not it is about to wrap. Not built
// under -race, whose instrumentation allocates.
func TestSerialAnswerAllocs(t *testing.T) {
	all := bigVRPSet(25_000).VRPs()
	srv := NewServer(rpki.NewSet(all[:22_500]))
	defer srv.Close()
	q := SerialQuery{SessionID: srv.SessionID(), Serial: srv.Serial()}
	srv.ApplyDelta(all[22_500:], all[:2_500])
	p := srv.pub.Load()
	from := p.lookup(q.Serial)
	if ann, wd := rov.Diff(from, p.current()); len(ann) != 2_500 || len(wd) != 2_500 {
		t.Fatalf("the answer carries +%d -%d prefixes, want 2500 of each", len(ann), len(wd))
	}
	// A collection in the middle of a run empties the scratch pools and the
	// refills are counted against one side only.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	diff := testing.AllocsPerRun(10, func() { _, _ = rov.Diff(from, p.current()) })

	c := &conn{c: discardConn{}, bw: bufio.NewWriterSize(discardConn{}, 4096), version: Version1, state: connActive}
	got := testing.AllocsPerRun(10, func() {
		if err := srv.streamSerial(c, Version1, q); err != nil {
			t.Fatal(err)
		}
	})
	const fixed = 4 // Cache Response, End of Data and their encode buffers
	if got > diff+fixed {
		t.Errorf("a 5,000-prefix Serial Query answer: %v allocs, of which rov.Diff %v; want at most %d more", got, diff, fixed)
	}
}
