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

// TestSubscribeMultipleConsumers pins the Subscribe contract: every
// registered consumer sees every applied non-empty delta exactly once, in
// commit order and registration order, before the Sync that produced it
// returns — consumer state is plain fields, read right after Sync. A second
// consumer keeps simple counters, the cmd/rtrclient pattern.
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

	mirror := map[rpki.VRP]struct{}{}
	var order []string
	c.Subscribe(func(ann, wd []rpki.VRP) {
		order = append(order, "mirror")
		replayDelta(t, mirror, ann, wd)
	})
	var announced, withdrawn int
	c.Subscribe(func(ann, wd []rpki.VRP) {
		order = append(order, "counter")
		announced += len(ann)
		withdrawn += len(wd)
	})
	check := func(deliveries int) {
		t.Helper()
		if len(order) != 2*deliveries {
			t.Fatalf("%d consumer calls, want %d", len(order), 2*deliveries)
		}
		for i, who := range order {
			if want := []string{"mirror", "counter"}[i%2]; who != want {
				t.Fatalf("consumer call %d went to %s, want %s (registration order)", i, who, want)
			}
		}
		if got := mirrorSet(mirror); !got.Equal(c.Set()) {
			t.Fatalf("subscriber mirror %v != table %v", got.VRPs(), c.Set().VRPs())
		}
	}

	if _, err := c.Sync(); err != nil { // initial full sync
		t.Fatal(err)
	}
	check(1)
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
	check(2)
	if announced != set.Len()+1 || withdrawn != 1 {
		t.Fatalf("counters after incremental sync: +%d -%d, want +%d -1", announced, withdrawn, set.Len()+1)
	}

	// A no-op incremental sync delivers nothing.
	if _, err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	check(2)
}

// TestSubscribeBlockingConsumer pins where delivery runs: on the goroutine
// that called Sync, never on the dispatch loop. A consumer that blocks
// inside its callback holds up that Sync (and FlushSubscribers) until it
// returns, while the dispatch loop keeps reading — a newer Serial Notify
// still reaches Notify(). Then concurrent Sync callers race a publisher:
// deliveries must not overlap and must arrive in commit order.
func TestSubscribeBlockingConsumer(t *testing.T) {
	set := testVRPs()
	srv := NewServer(set)
	addr, stop := startServer(t, srv)
	defer stop()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Consumer state is plain: deliveries are serialized by the client, and
	// the test reads it after a Sync or FlushSubscribers of its own.
	mirror := map[rpki.VRP]struct{}{}
	var serials []Serial
	entered, gate := make(chan struct{}), make(chan struct{})
	c.Subscribe(func(ann, wd []rpki.VRP) {
		if len(serials) == 1 { // the second delivery blocks
			close(entered)
			<-gate
		}
		serials = append(serials, c.Serial())
		replayDelta(t, mirror, ann, wd)
	})
	if _, err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	if len(serials) != 1 {
		t.Fatalf("Sync returned with %d deliveries made, want 1", len(serials))
	}

	cur := set
	publish := func(i int) {
		cur = rpki.NewSet(append(cur.VRPs(),
			rpki.VRP{Prefix: mp("10.0.0.0/8"), MaxLength: uint8(8 + i%24), AS: rpki.ASN(400 + i)}))
		srv.UpdateSet(cur)
	}
	publish(0)
	if _, err := c.WaitNotify(); err != nil {
		t.Fatal(err)
	}
	syncDone := make(chan error, 1)
	go func() {
		_, err := c.Sync()
		syncDone <- err
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("consumer was not called")
	}
	// The consumer is parked inside its callback. The dispatch loop is not:
	// the next publish's notify comes through.
	publish(1)
	select {
	case s := <-c.Notify():
		if s != srv.Serial() {
			t.Fatalf("notified of serial %d, want %d", s, srv.Serial())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no Serial Notify while a consumer blocks: the dispatch loop is stalled")
	}
	select {
	case err := <-syncDone:
		t.Fatalf("Sync returned (%v) while its delivery was still running", err)
	default:
	}
	flushed := make(chan struct{})
	go func() {
		c.FlushSubscribers()
		close(flushed)
	}()
	select {
	case <-flushed:
		t.Fatal("FlushSubscribers returned while a delivery was still running")
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	if err := <-syncDone; err != nil {
		t.Fatal(err)
	}
	<-flushed

	// Concurrent callers: whichever goroutine's Sync commits an update
	// delivers it before the next exchange starts.
	const callers, rounds = 4, 16
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if _, err := c.Sync(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for i := 2; i < 2+rounds; i++ {
		publish(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent Sync: %v", err)
	}
	if _, err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(serials); i++ {
		if !SerialNewer(serials[i], serials[i-1]) {
			t.Fatalf("delivery %d carried serial %d after %d: out of commit order", i, serials[i], serials[i-1])
		}
	}
	if last := serials[len(serials)-1]; last != srv.Serial() {
		t.Fatalf("last delivery at serial %d, cache is at %d", last, srv.Serial())
	}
	if got := mirrorSet(mirror); !got.Equal(cur) {
		t.Fatalf("consumer mirror has %d VRPs, want %d", got.Len(), cur.Len())
	}
}
