//go:build !race

package rtr

import (
	"bufio"
	"io"
	"net"
	"runtime/debug"
	"testing"

	"repro/internal/rov"
	"repro/internal/rpki"
)

// TestSerialAnswerAllocs pins the cache's writer at the allocations of the
// diff an answer is made of and not one more: a 5,000-prefix Serial Query
// answer wraps the connection's 4 KiB buffer two dozen times, and each PDU,
// Cache Response and End of Data included, is encoded in the buffer's spare
// capacity whether or not it is about to wrap. A Serial Notify, a Cache Reset
// and a short Error Report cost nothing. Not built under -race, whose
// instrumentation allocates.
func TestSerialAnswerAllocs(t *testing.T) {
	all := bigVRPSet(25_000).VRPs()
	srv := NewServer(rpki.NewSet(all[:22_500]))
	defer waitBounded(t, "closing the cache", func() error { srv.Close(); return nil })
	q := SerialQuery{SessionID: srv.SessionID(), Serial: srv.Serial()}
	waitBounded(t, "publishing the delta", func() error { srv.ApplyDelta(all[22_500:], all[:2_500]); return nil })
	p := srv.pub.Load()
	from := p.lookup(q.Serial)
	if ann, wd := rov.Diff(from, p.current()); len(ann) != 2_500 || len(wd) != 2_500 {
		t.Fatalf("the answer carries +%d -%d prefixes, want 2500 of each", len(ann), len(wd))
	}
	// A collection in the middle of a run empties the scratch pools and the
	// refills are counted against one side only.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	diff := testing.AllocsPerRun(10, func() { _, _ = rov.Diff(from, p.current()) })

	c := &conn{c: discardConn{}, bw: bufio.NewWriterSize(discardConn{}, 4096)}
	write := func(item outItem) float64 {
		return testing.AllocsPerRun(10, func() {
			if err := srv.writeItem(c, item); err != nil {
				t.Fatal(err)
			}
		})
	}
	if got := write(outItem{kind: outSerial, version: Version1, query: q}); got > diff {
		t.Errorf("a 5,000-prefix Serial Query answer: %v allocs, of which rov.Diff %v; want none more", got, diff)
	}
	for _, tc := range []struct {
		name string
		item outItem
	}{
		{"a Serial Notify", outItem{kind: outNotify, version: Version1, query: SerialQuery{SessionID: srv.SessionID(), Serial: srv.Serial()}}},
		{"a Cache Reset", outItem{kind: outSerial, version: Version1, query: SerialQuery{SessionID: q.SessionID + 1}}},
		{"an Error Report", outItem{kind: outError, version: Version1, errCode: ErrInvalidRequest, errText: "unexpected PDU type 3 from router"}},
	} {
		if got := write(tc.item); got != 0 {
			t.Errorf("%s: %v allocs, want 0", tc.name, got)
		}
	}
}

// TestClientResetAllocs pins a full sync at a constant number of allocations
// on the router's side, whatever the table's size: 4,096 Prefix PDUs arrive
// over a net.Pipe from a goroutine that writes one pre-encoded response, and
// the client — dispatch loop, staging slice, the session table's build — must
// make fewer than 256 allocations of it. Decoding each PDU into a scratch
// array and a Prefix of its own made 8,200. Not built under -race.
func TestClientResetAllocs(t *testing.T) {
	const n = 4096
	resp := fullResponse(t, 0x5eed, 9, bigVRPSet(n).VRPs())
	query := make([]byte, 8)
	got := testing.AllocsPerRun(5, func() {
		router, cache := net.Pipe()
		defer cache.Close()
		go func() {
			if _, err := io.ReadFull(cache, query); err == nil {
				_, _ = cache.Write(resp) // a short write fails the sync below
			}
		}()
		c := NewClient(router)
		if err := c.Reset(); err != nil {
			t.Fatal(err)
		}
		if c.Len() != n {
			t.Fatalf("synced %d VRPs, want %d", c.Len(), n)
		}
		c.Close()
		<-c.Done()
	})
	if got >= 256 {
		t.Errorf("a full sync of %d Prefix PDUs: %v allocs on the client's side, want fewer than 256", n, got)
	}
	t.Logf("a full sync of %d Prefix PDUs: %v allocs", n, got)
}

// TestNewServerAllocs is the gate on what building a cache allocates, on
// cache_refresh's 182,501-VRP set: rov.NewTable's pre-order copy of the set
// and the slab it sorts through (2; rov.TestByPrefixAllocs bounds their
// bytes), its table, index, two node slabs, two radix page slabs and entry
// slab (7: the copy is in pre-order, so its spans are written in place, with
// no terminal list); the Server, its first published value, that value's
// snapshot ring and its next channel (4). A third VRP slab fails it. The
// collector is off while it counts: a cycle a build starts adds to the count.
func TestNewServerAllocs(t *testing.T) {
	full := quarterFull()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if got := testing.AllocsPerRun(3, func() { NewServer(full).Close() }); got != 13 {
		t.Errorf("NewServer of %d VRPs: %v allocs, want 13", full.Len(), got)
	}
}
