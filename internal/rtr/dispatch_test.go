package rtr

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/rpki"
)

// TestIdleErrorReportFailsClient pins the dispatch loop's idle-state
// handling of an Error Report arriving between syncs: RFC 8210 §8 makes it
// fatal to the session, so the client must surface it as the sticky error,
// close the connection, and fail every subsequent call fast. The old
// blocking-reader design would instead have misparsed it as an unexpected
// PDU inside the next exchange.
func TestIdleErrorReportFailsClient(t *testing.T) {
	cliConn, srvConn := net.Pipe()
	c := NewClient(cliConn)
	defer c.Close()

	// Unsolicited Error Report while no exchange is in flight (net.Pipe
	// writes rendezvous with the dispatch loop's read, hence the goroutine).
	go WritePDU(srvConn, Version1, &ErrorReport{Code: ErrInternalError, Text: "cache going down"})

	select {
	case <-c.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("dispatch loop did not terminate on idle Error Report")
	}
	var er *ErrorReport
	if !errors.As(c.Err(), &er) || er.Code != ErrInternalError {
		t.Fatalf("sticky error = %v, want the internal-error Error Report", c.Err())
	}
	// Failed client: every call reports the same sticky error without
	// touching the (closed) connection.
	if _, err := c.Sync(); !errors.As(err, &er) {
		t.Fatalf("Sync after failure = %v, want the Error Report", err)
	}
	if _, err := c.WaitNotify(); !errors.As(err, &er) {
		t.Fatalf("WaitNotify after failure = %v, want the Error Report", err)
	}
	// The client closed its side as §8 requires: the cache sees EOF.
	srvConn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, _, err := ReadPDU(srvConn); err == nil {
		t.Fatal("client did not close the connection after the idle Error Report")
	}
}

// TestConcurrentSyncResetDispatch hammers the dispatch loop with concurrent
// Sync and Reset callers while the cache keeps updating (run under -race by
// make race): the at-most-one-in-flight serialization must keep every
// exchange intact and the table convergent.
func TestConcurrentSyncResetDispatch(t *testing.T) {
	set := testVRPs()
	srv := NewServer(set)
	addr, stop := startServer(t, srv)
	defer stop()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const goroutines, rounds = 4, 8
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if g%2 == 0 {
					if _, err := c.Sync(); err != nil {
						errs <- err
						return
					}
				} else {
					if err := c.Reset(); err != nil {
						errs <- err
						return
					}
				}
			}
		}(g)
	}
	// Updates (and their Serial Notifies) race the exchanges.
	cur := set
	for i := 0; i < rounds; i++ {
		cur = rpki.NewSet(append(cur.VRPs(),
			rpki.VRP{Prefix: mp("10.0.0.0/8"), MaxLength: uint8(8 + i), AS: rpki.ASN(300 + i)}))
		srv.UpdateSet(cur)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent exchange failed: %v", err)
	}
	if _, err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	if !c.Set().Equal(cur) {
		t.Fatalf("after concurrent exchanges: %d VRPs, want %d", c.Len(), cur.Len())
	}
}

// TestSubscribeMultipleConsumers pins the post-fan-out Subscribe contract:
// every registered consumer sees every applied non-empty delta exactly once
// and in commit order on its own drainer goroutine, and FlushSubscribers is
// the point after which consumer state may be asserted on. A second consumer
// keeps simple counters, the cmd/rtrclient pattern.
func TestSubscribeMultipleConsumers(t *testing.T) {
	set := testVRPs()
	srv := NewServer(set)
	addr, stop := startServer(t, srv)
	defer stop()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Subscribe consumers each run on their own drainer goroutine: their
	// state is read only after FlushSubscribers, which is the documented
	// synchronization point, so plain fields are still race-free.
	mirror := map[rpki.VRP]struct{}{}
	mirrorDeliveries := 0
	c.Subscribe(func(ann, wd []rpki.VRP) {
		mirrorDeliveries++
		replayDelta(t, mirror, ann, wd)
	})
	var announced, withdrawn, counterDeliveries int
	c.Subscribe(func(ann, wd []rpki.VRP) {
		counterDeliveries++
		announced += len(ann)
		withdrawn += len(wd)
	})
	checkDeliveries := func(want int) {
		t.Helper()
		c.FlushSubscribers()
		if mirrorDeliveries != want || counterDeliveries != want {
			t.Fatalf("deliveries mirror/counter = %d/%d, want %d each", mirrorDeliveries, counterDeliveries, want)
		}
	}
	checkMirror := func() {
		t.Helper()
		if got := mirrorSet(mirror); !got.Equal(c.Set()) {
			t.Fatalf("subscriber mirror %v != table %v", got.VRPs(), c.Set().VRPs())
		}
	}

	if _, err := c.Sync(); err != nil { // initial full sync
		t.Fatal(err)
	}
	checkDeliveries(1)
	checkMirror()
	if announced != set.Len() || withdrawn != 0 {
		t.Fatalf("counters after full sync: +%d -%d, want +%d -0", announced, withdrawn, set.Len())
	}

	// Incremental update: one VRP dropped, one added; every consumer sees
	// exactly one more delta.
	next := rpki.NewSet(append(set.VRPs()[1:],
		rpki.VRP{Prefix: mp("10.0.0.0/8"), MaxLength: 8, AS: 7}))
	srv.UpdateSet(next)
	if _, err := c.WaitNotify(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	checkDeliveries(2)
	checkMirror()
	if announced != set.Len()+1 || withdrawn != 1 {
		t.Fatalf("counters after incremental sync: +%d -%d, want +%d -1", announced, withdrawn, set.Len()+1)
	}

	// A no-op incremental sync delivers nothing.
	if _, err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	checkDeliveries(2)
	checkMirror()
}

// TestSubscribeSlowConsumerBackpressure pins the fan-out's backpressure
// semantics: a consumer that blocks does not stall the dispatch loop (other
// consumers and Sync keep making progress), and once it falls more than
// SubscribeQueue updates behind, its pending updates coalesce to their
// exact net effect — fewer, larger deliveries; no delta lost.
func TestSubscribeSlowConsumerBackpressure(t *testing.T) {
	set := testVRPs()
	srv := NewServer(set)
	addr, stop := startServer(t, srv)
	defer stop()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SubscribeQueue = 2

	// The slow consumer parks on a gate after its first delivery; its
	// mirror applies every delta it eventually sees.
	gate := make(chan struct{})
	slowMirror := map[rpki.VRP]struct{}{}
	slowDeliveries := 0
	c.Subscribe(func(ann, wd []rpki.VRP) {
		slowDeliveries++
		if slowDeliveries == 1 {
			<-gate
		}
		replayDelta(t, slowMirror, ann, wd)
	})
	// The fast consumer reports each delivery, and the test takes the report
	// before it syncs again: a consumer that keeps up is never coalesced, but
	// one whose drainer merely has not been scheduled yet would be.
	fastDeliveries := 0
	fastSeen := make(chan struct{}, 1)
	c.Subscribe(func(ann, wd []rpki.VRP) { fastDeliveries++; fastSeen <- struct{}{} })
	awaitFast := func() {
		t.Helper()
		select {
		case <-fastSeen:
		case <-time.After(5 * time.Second):
			t.Fatal("fast consumer was not delivered an update while the slow one is wedged")
		}
	}

	if _, err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	awaitFast()
	// With the slow consumer wedged in delivery #1, run many more updates
	// than its queue holds. Sync must keep returning — the dispatch loop is
	// not stalled — and the fast consumer must see every delta.
	const updates = 8
	cur := set
	for i := 0; i < updates; i++ {
		cur = rpki.NewSet(append(cur.VRPs(),
			rpki.VRP{Prefix: mp("10.0.0.0/8"), MaxLength: uint8(8 + i), AS: rpki.ASN(400 + i)}))
		srv.UpdateSet(cur)
		if _, err := c.WaitNotify(); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Sync(); err != nil {
			t.Fatal(err)
		}
		awaitFast()
	}
	close(gate)
	c.FlushSubscribers()

	if fastDeliveries != updates+1 {
		t.Errorf("fast consumer saw %d deliveries, want %d", fastDeliveries, updates+1)
	}
	// The slow consumer saw the wedged delivery plus at most SubscribeQueue
	// coalesced ones — strictly fewer than the update count — and its
	// mirror still converged to the exact final table.
	if slowDeliveries > 1+2 || slowDeliveries < 2 {
		t.Errorf("slow consumer saw %d deliveries, want 2..3 (coalesced)", slowDeliveries)
	}
	if got := mirrorSet(slowMirror); !got.Equal(cur) {
		t.Fatalf("slow consumer mirror has %d VRPs, want %d — a coalesced delta was lost", got.Len(), cur.Len())
	}
}
