package rtr

import (
	"bytes"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/rov"
	"repro/internal/rpki"
)

// countingConn counts the Read calls made on a connection: over TCP, the
// read(2) syscalls the client's side of a sync costs.
type countingConn struct {
	net.Conn
	reads atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(p)
}

// scriptedConn is a cache that has already sent its answer: once the client
// has written a query, Read hands out the scripted segments in order, never
// across a segment boundary — each segment is what one TCP segment's arrival
// would make readable — and then blocks until Close, as an idle socket does.
type scriptedConn struct {
	discardConn // addresses and deadlines

	mu      sync.Mutex
	segs    [][]byte
	queried chan struct{}
	closed  chan struct{}
	qOnce   sync.Once
	cOnce   sync.Once
}

func newScriptedConn(segs ...[]byte) *scriptedConn {
	return &scriptedConn{segs: segs, queried: make(chan struct{}), closed: make(chan struct{})}
}

func (s *scriptedConn) Write(p []byte) (int, error) {
	s.qOnce.Do(func() { close(s.queried) })
	return len(p), nil
}

func (s *scriptedConn) Read(p []byte) (int, error) {
	select {
	case <-s.queried:
	case <-s.closed:
		return 0, net.ErrClosed
	}
	s.mu.Lock()
	if len(s.segs) > 0 {
		n := copy(p, s.segs[0])
		if s.segs[0] = s.segs[0][n:]; len(s.segs[0]) == 0 {
			s.segs = s.segs[1:]
		}
		s.mu.Unlock()
		return n, nil
	}
	s.mu.Unlock()
	<-s.closed
	return 0, net.ErrClosed
}

func (s *scriptedConn) Close() error {
	s.cOnce.Do(func() { close(s.closed) })
	return nil
}

// fullResponse encodes a cache's whole answer to a Reset Query.
func fullResponse(t testing.TB, session uint16, serial Serial, vrps []rpki.VRP) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := answer(&buf, session, serial, 7200, vrps...); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFullSyncReadsPerBuffer pins the dispatch goroutine's read buffer: with
// the whole response readable, a full sync of N prefix PDUs costs one Read
// per buffer of bytes, not two per PDU (header, body) — the per-PDU syscalls
// that were a third of a cold start's CPU.
func TestFullSyncReadsPerBuffer(t *testing.T) {
	const n = 5000
	table := bigVRPSet(n)
	resp := fullResponse(t, 0x5eed, 9, table.VRPs())
	cc := &countingConn{Conn: newScriptedConn(resp)}
	c := NewClient(cc)
	defer c.Close()
	if err := c.Reset(); err != nil {
		t.Fatal(err)
	}
	if !c.Set().Equal(table) {
		t.Fatalf("synced %d VRPs, want %d", c.Len(), table.Len())
	}
	// The +4: the read that finds the stream drained and parks, and slack for
	// a reader that refills before its buffer is quite empty.
	limit := int64((len(resp)+readBufSize-1)/readBufSize) + 4
	if got := cc.reads.Load(); got > limit {
		t.Fatalf("full sync of %d PDUs (%d bytes) took %d Read calls, want at most %d", n+2, len(resp), got, limit)
	}
}

// TestPDUSplitAtEveryOffset delivers one response — both address families, a
// Serial Notify in the middle of the update, End of Data — as two segments
// split at every byte offset. Wherever the boundary falls (inside a header,
// between header and body, inside a body, between PDUs), the buffered reader
// must hand the dispatch loop the same PDUs.
func TestPDUSplitAtEveryOffset(t *testing.T) {
	const session = 0x7a11
	vrps := testVRPs().VRPs()
	var buf bytes.Buffer
	pdus := []PDU{&CacheResponse{SessionID: session}}
	for i, v := range vrps {
		if i == 2 {
			pdus = append(pdus, &SerialNotify{SessionID: session, Serial: 12})
		}
		pdus = append(pdus, &Prefix{Flags: FlagAnnounce, VRP: v})
	}
	pdus = append(pdus, &EndOfData{SessionID: session, Serial: 11, Refresh: 3600, Retry: 600, Expire: 7200})
	for _, p := range pdus {
		if err := WritePDU(&buf, Version1, p); err != nil {
			t.Fatal(err)
		}
	}
	resp := buf.Bytes()
	for k := 1; k < len(resp); k++ {
		sc := newScriptedConn(resp[:k:k], resp[k:])
		c := NewClient(sc)
		if err := c.Reset(); err != nil {
			t.Fatalf("split at %d: %v", k, err)
		}
		if !c.Set().Equal(testVRPs()) || c.Serial() != 11 || c.SessionID() != session {
			t.Fatalf("split at %d: table %v at serial %d, session %#x", k, c.Set().VRPs(), c.Serial(), c.SessionID())
		}
		// The notify was for a serial past End of Data's: still news.
		select {
		case s := <-c.Notify():
			if s != 12 {
				t.Fatalf("split at %d: notify serial %d, want 12", k, s)
			}
		default:
			t.Fatalf("split at %d: the mid-update Serial Notify was lost", k)
		}
		c.Close()
		<-c.Done()
	}
}

// The session tables are rov.Tables: the Index a delta path-copies, radix
// root included, and nothing derived beside it.
var _ = func(c *Client, u *upstream, s *Server) []*rov.Table {
	return []*rov.Table{c.table, u.table, s.live}
}

// TestSessionTableHoldsNoCompactIndex pins what that costs in bytes: a synced
// bare client's table at today's size is one index — under 130 B a VRP, the
// staging list it keeps for the first Diff included — where an index plus an
// unread compact index was 220 B.
func TestSessionTableHoldsNoCompactIndex(t *testing.T) {
	const n = 33615
	resp := fullResponse(t, 0x5eed, 9, bigVRPSet(n).VRPs())
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	sc := newScriptedConn(resp)
	before := heap()
	c := NewClient(sc)
	defer c.Close()
	if err := c.Reset(); err != nil {
		t.Fatal(err)
	}
	after := heap()
	if c.Len() != n {
		t.Fatalf("synced %d VRPs, want %d", c.Len(), n)
	}
	perVRP := float64(after-min(after, before)) / n
	t.Logf("bare client table: %.1f B/VRP", perVRP)
	if perVRP > 130 {
		t.Fatalf("bare client table costs %.1f B/VRP, want at most 130", perVRP)
	}
	runtime.KeepAlive(resp) // counted on both sides of the difference
}
