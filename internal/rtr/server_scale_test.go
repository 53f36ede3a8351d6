package rtr

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rpki"
)

// bigVRPSet builds an n-VRP IPv4 set large enough that a full-table
// response cannot fit in kernel socket buffers — the lever the slow-router
// tests use to wedge a writer on a router that stops reading.
func bigVRPSet(n int) *rpki.Set {
	vrps := make([]rpki.VRP, 0, n)
	for i := 0; i < n; i++ {
		vrps = append(vrps, rpki.VRP{
			Prefix:    mp(fmt.Sprintf("%d.%d.%d.0/24", 10+(i>>16), (i>>8)&0xff, i&0xff)),
			MaxLength: 24,
			AS:        rpki.ASN(64496 + i%1000),
		})
	}
	return rpki.NewSet(vrps)
}

// TestSlowRouterIsolation is the regression test for a notify written to the
// socket on the publisher's path (a write under the publishers' lock, since
// replaced by writers that each notify their own router) and for the retired
// writer pool: routers wedge their TCP read side with multi-megabyte
// responses pending, and the cache must keep publishing at full speed —
// every healthy router notified and synced within the round bound, far below
// the write deadline a publisher or a shared writer blocked on a wedged
// socket would eat — then disconnect the wedged routers by write deadline.
// Every wait — dial, reset, publish, notify, sync, the deferred stop — is
// bounded (waitBounded): a deadlock fails the test, naming the wait, instead
// of hanging the package; each case starts only with startFloor of the
// package's time left.
func TestSlowRouterIsolation(t *testing.T) {
	// writeTimeout is what one write to a wedged socket costs whoever waits
	// for it. It must also be several times what a healthy router's
	// 50,000-VRP response takes: that is 0.2 s under -race alone, and at
	// 300 ms a loaded machine shed a healthy router during set-up.
	const writeTimeout = 2 * time.Second
	// round bounds publish → every healthy router synced. The claim is a
	// ratio, not a wall-clock constant: a round coupled to even one wedged
	// socket costs a whole writeTimeout, so half of one separates the two
	// however slow the machine is at both.
	const round = writeTimeout / 2
	cases := []struct {
		name             string
		stalled, healthy int
	}{
		{"one stalled router", 1, 4},
		// Twice the routers the pool had writers: it served the healthy
		// router only after two rounds of WriteTimeout (3.8 s).
		{"more stalled routers than a pool has writers", 8, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			needStartFloor(t)
			srv := NewServer(bigVRPSet(50_000))
			srv.WriteTimeout = writeTimeout
			addr, stop := startServer(t, srv)
			defer waitBounded(t, "stopping the cache", func() error { stop(); return nil })

			clients := make([]*Client, tc.healthy)
			for i := range clients {
				c := dialBounded(t, addr)
				defer c.Close()
				waitBounded(t, fmt.Sprintf("healthy client %d's reset", i), c.Reset)
				clients[i] = c
			}

			// The stalled routers: shrink the receive buffer so the server's
			// writes hit a closed TCP window fast, queue several full-table
			// responses, and never read a byte.
			for i := 0; i < tc.stalled; i++ {
				stalled, err := net.Dial("tcp", addr)
				if err != nil {
					t.Fatal(err)
				}
				defer stalled.Close()
				if tcp, ok := stalled.(*net.TCPConn); ok {
					tcp.SetReadBuffer(4096)
				}
				for q := 0; q < 8; q++ {
					if err := WritePDU(stalled, Version1, &ResetQuery{}); err != nil {
						t.Fatal(err)
					}
				}
			}
			// Give the writers time to fill the socket buffers and block
			// mid-write.
			time.Sleep(100 * time.Millisecond)

			// Publish through the wedge.
			for i := 0; i < 3; i++ {
				v := rpki.VRP{Prefix: mp("192.0.2.0/24"), MaxLength: uint8(25 + i), AS: 65000}
				start := time.Now()
				waitBounded(t, fmt.Sprintf("publish #%d", i), func() error { srv.ApplyDelta([]rpki.VRP{v}, nil); return nil })
				for j, c := range clients {
					notifyBounded(t, c, fmt.Sprintf("healthy client %d's notify #%d", j, i))
					syncBounded(t, c, fmt.Sprintf("healthy client %d's sync #%d", j, i))
				}
				if d := time.Since(start); d > round {
					t.Fatalf("publish #%d reached the healthy routers in %v, want under %v — they are coupled to the stalled routers' sockets", i, d, round)
				}
			}

			// The wedged routers are disconnected by the write deadline, not
			// tolerated forever. ConnCount, the writers still running, is the
			// observable: the kernel may sit on the closed socket's
			// undelivered bytes indefinitely while the peer's window is
			// closed, so the client side is no witness.
			deadline := time.Now().Add(writeTimeout + 5*time.Second)
			for srv.ConnCount() != tc.healthy {
				if time.Now().After(deadline) {
					t.Fatalf("stalled routers' writers still running: connCount = %d, want %d", srv.ConnCount(), tc.healthy)
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}

// TestServerCloseDuringPublish races Close against UpdateSet and ApplyDelta,
// round after round, on a cache with a router connected. Publishers, a
// connection's start and Close's flag share the one Server.mu, and nothing
// else in the package is locked with it held but rov.Table.mu: a Close that
// took it twice, or a publish that waited under it for a writer, would hang
// the round. It is bounded (waitBounded), so the test fails naming the round
// instead.
func TestServerCloseDuringPublish(t *testing.T) {
	a := testVRPs()
	b := addVRPs(a, rpki.VRP{Prefix: mp("198.51.100.0/24"), MaxLength: 24, AS: 64511})
	churn := []rpki.VRP{{Prefix: mp("203.0.113.0/24"), MaxLength: 24, AS: 64512}}
	for round := 0; round < 100; round++ {
		srv := NewServer(a)
		addr, stop := startServer(t, srv)
		var c *Client
		waitBounded(t, fmt.Sprintf("round %d: a router's dial and reset", round), func() (err error) {
			if c, err = Dial(addr); err != nil {
				return err
			}
			return c.Reset()
		})
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				srv.UpdateSet([]*rpki.Set{b, a}[i%2])
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if i%2 == 0 {
					srv.ApplyDelta(churn, nil)
				} else {
					srv.ApplyDelta(nil, churn)
				}
			}
		}()
		waitBounded(t, fmt.Sprintf("round %d: Close while UpdateSet and ApplyDelta publish", round), func() error {
			stop()
			wg.Wait()
			return nil
		})
		c.Close()
		<-c.Done()
	}
}

// TestCloseWaitsUnlocked: Close waits for its writers with no lock held, so a
// publish racing a Close whose writer is slow to exit does not wait for that
// writer. Here the writer is stuck in a Write that closing its socket does
// not end, until the test lets it go: a Close that waited under Server.mu
// would hold the publish with it.
func TestCloseWaitsUnlocked(t *testing.T) {
	needStartFloor(t)
	srv := NewServer(testVRPs())
	router, cache := net.Pipe()
	defer router.Close()
	stuck := &stuckConn{Conn: cache, writing: make(chan struct{}), cut: make(chan struct{}), release: make(chan struct{})}
	defer stuck.unstick()
	go srv.handle(stuck)
	if err := WritePDU(router, Version1, &ResetQuery{}); err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	waitBounded(t, "the writer starting its answer", func() error { <-stuck.writing; return nil })
	go func() {
		defer close(closed)
		srv.Close()
	}()
	waitBounded(t, "Close cutting the socket", func() error { <-stuck.cut; return nil })
	waitBounded(t, "a publish while Close waits for a stuck writer", func() error {
		srv.ApplyDelta([]rpki.VRP{{Prefix: mp("198.51.100.0/24"), MaxLength: 24, AS: 64511}}, nil)
		return nil
	})
	stuck.unstick()
	waitBounded(t, "Close returning once the writer exits", func() error { <-closed; return nil })
	if n := srv.ConnCount(); n != 0 {
		t.Errorf("ConnCount = %d after Close, want 0", n)
	}
}

// TestServeAndConnectAfterClose: a Close that comes first wins. Serve after
// it returns an error at once, a router that connects after it is hung up
// on, and the cache still publishes: neither path leaves Server.mu held.
func TestServeAndConnectAfterClose(t *testing.T) {
	srv := NewServer(testVRPs())
	waitBounded(t, "Close", func() error { srv.Close(); return nil })
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	waitBounded(t, "Serve after Close", func() error {
		if srv.Serve(l) == nil {
			return errors.New("Serve returned nil")
		}
		return nil
	})
	router, cache := net.Pipe()
	defer router.Close()
	waitBounded(t, "a router connecting after Close", func() error { srv.handle(cache); return nil })
	if _, err := router.Read(make([]byte, 1)); err == nil {
		t.Error("a router that connected after Close was not hung up on")
	}
	waitBounded(t, "a publish after Close", func() error {
		srv.ApplyDelta([]rpki.VRP{{Prefix: mp("198.51.100.0/24"), MaxLength: 24, AS: 64511}}, nil)
		return nil
	})
	if n := srv.ConnCount(); n != 0 {
		t.Errorf("ConnCount = %d after Close, want 0", n)
	}
}

// stuckConn is the cache's side of a router's pipe whose writes block until
// unstick, whether or not the conn is closed. It closes writing when the
// first Write starts and cut when Close is first called.
type stuckConn struct {
	net.Conn
	writing, cut, release chan struct{}
	wrote, closed, freed  sync.Once
}

func (s *stuckConn) Write(b []byte) (int, error) {
	s.wrote.Do(func() { close(s.writing) })
	<-s.release
	return s.Conn.Write(b)
}

func (s *stuckConn) Close() error {
	s.closed.Do(func() { close(s.cut) })
	return s.Conn.Close()
}

func (s *stuckConn) unstick() { s.freed.Do(func() { close(s.release) }) }

// TestServerCloseLeavesNoGoroutine: Server.Close ends every handler and
// writer it started — an idle router's, a never-reading router's wedged
// mid-write with answers still queued, a router's stopped halfway through a
// Reset Query — and with them the dispatch loop of the synced Client on the
// far side; Client.Close ends a bare Client's. The process returns to its
// goroutine count from before the server started.
func TestServerCloseLeavesNoGoroutine(t *testing.T) {
	needStartFloor(t)
	baseline := runtime.NumGoroutine()
	srv := NewServer(bigVRPSet(50_000))
	srv.WriteTimeout = time.Minute // Close, not the deadline, must end the wedge
	addr, stop := startServer(t, srv)

	idle := dialBounded(t, addr)
	defer idle.Close()
	waitBounded(t, "the idle router's reset", idle.Reset)
	// The wedged router is a pipe whose far side nobody reads: the writer's
	// first flush blocks until Close cuts the pipe.
	router, cache := net.Pipe()
	defer router.Close()
	wedged := &watchedConn{Conn: cache, writing: make(chan struct{}), queued: make(chan struct{})}
	go srv.handle(wedged)
	for q := 0; q < 8; q++ {
		if err := WritePDU(router, Version1, &ResetQuery{}); err != nil {
			t.Fatal(err)
		}
	}
	halfway, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer halfway.Close()
	var query bytes.Buffer
	if err := WritePDU(&query, Version1, &ResetQuery{}); err != nil {
		t.Fatal(err)
	}
	if _, err := halfway.Write(query.Bytes()[:4]); err != nil {
		t.Fatal(err)
	}
	bareSide, _ := net.Pipe()
	bare := NewClient(bareSide)
	waitFor(t, func() bool { return srv.ConnCount() == 3 })
	// The writer is blocked in its first answer's flush, and the handler,
	// reading again after its eighth query, has queued the other seven.
	waitBounded(t, "the wedged router's writer blocking with answers queued", func() error {
		<-wedged.writing
		<-wedged.queued
		return nil
	})

	closed := make(chan struct{})
	go func() {
		defer close(closed)
		stop()
		bare.Close()
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Server.Close or Client.Close did not return")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Close, %d before the server started\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestQueueOverflowDisconnect pins the overflow policy: a router that keeps
// sending queries without draining responses overflows its bounded outbound
// queue and is disconnected — the queue never grows without bound and its
// writer never owes it unbounded work.
func TestQueueOverflowDisconnect(t *testing.T) {
	needStartFloor(t)
	srv := NewServer(bigVRPSet(50_000))
	addr, stop := startServer(t, srv)
	defer waitBounded(t, "stopping the cache", func() error { stop(); return nil })

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetReadBuffer(4096)
	}
	// Far more queries than queueDepth, none of their responses read. The
	// first responses wedge the writer against the closed window; the queue
	// passes the bound; the server disconnects.
	for i := 0; i < 4*queueDepth; i++ {
		if err := WritePDU(nc, Version1, &ResetQuery{}); err != nil {
			break // already disconnected: also a pass
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for srv.ConnCount() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("overflowing router's writer still running: connCount = %d", srv.ConnCount())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestConcurrentConnectDisconnectDuringPublish churns sessions while the
// publisher runs flat out (meaningful under -race): a connection's start and
// end, the notify broadcast, and the atomic publish swap must compose
// without a torn read or a writer left running. Each wait is bounded
// (waitBounded): a deadlock fails the test, naming the wait.
func TestConcurrentConnectDisconnectDuringPublish(t *testing.T) {
	srv := NewServer(testVRPs())
	addr, stop := startServer(t, srv)
	defer waitBounded(t, "stopping the cache", func() error { stop(); return nil })

	done := make(chan struct{})
	var pubWG sync.WaitGroup
	pubWG.Add(1)
	go func() {
		defer pubWG.Done()
		v := rpki.VRP{Prefix: mp("198.51.100.0/24"), MaxLength: 24, AS: 64511}
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			if i%2 == 0 {
				srv.ApplyDelta([]rpki.VRP{v}, nil)
			} else {
				srv.ApplyDelta(nil, []rpki.VRP{v})
			}
		}
	}()

	const connectors, rounds = 8, 6
	var wg sync.WaitGroup
	errs := make(chan error, connectors)
	for g := 0; g < connectors; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				c, err := Dial(addr)
				if err != nil {
					errs <- err
					return
				}
				if err := c.Reset(); err != nil {
					c.Close()
					errs <- err
					return
				}
				c.Close()
			}
		}()
	}
	waitBounded(t, "the connectors' dial-and-reset rounds", func() error { wg.Wait(); return nil })
	close(done)
	waitBounded(t, "the publisher stopping", func() error { pubWG.Wait(); return nil })
	close(errs)
	for err := range errs {
		t.Fatalf("connect/sync during publish churn: %v", err)
	}

	// Every churned session's writer ends once its handler observes the close.
	waitBounded(t, "every churned writer ending", func() error {
		deadline := time.Now().Add(5 * time.Second)
		for srv.ConnCount() != 0 {
			if time.Now().After(deadline) {
				return fmt.Errorf("writer leak: connCount = %d after all clients closed", srv.ConnCount())
			}
			time.Sleep(10 * time.Millisecond)
		}
		return nil
	})

	// A fresh client converges on the final table.
	var c *Client
	waitBounded(t, "a fresh client's dial and reset", func() (err error) {
		if c, err = Dial(addr); err != nil {
			return err
		}
		return c.Reset()
	})
	defer c.Close()
	want := rpki.NewSet(srv.pub.Load().current().AppendVRPs(nil))
	if !c.Set().Equal(want) {
		t.Fatalf("fresh client table %d VRPs != published %d", c.Len(), want.Len())
	}
}

// TestPublishedRingConsistency reads the published value concurrently with
// publishing (meaningful under -race) and checks its structural invariants
// on every observed version: bounded ring, strictly consecutive serials,
// the current serial resolvable to the current table, a constant session.
func TestPublishedRingConsistency(t *testing.T) {
	needStartFloor(t)
	srv := NewServer(testVRPs())
	srv.keepDeltas = 5
	session := srv.SessionID()

	stopRead := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stopRead:
				return
			default:
			}
			p := srv.pub.Load()
			if n := len(p.snaps); n < 1 || n > srv.keepDeltas+2 {
				t.Errorf("ring size %d outside [1, %d]", n, srv.keepDeltas+2)
				return
			}
			if p.session != session {
				t.Errorf("session changed: %#x -> %#x", session, p.session)
				return
			}
			for i := 1; i < len(p.snaps); i++ {
				if p.snaps[i].serial != SerialAdvance(p.snaps[i-1].serial, 1) {
					t.Errorf("ring serials not consecutive: %d after %d", p.snaps[i].serial, p.snaps[i-1].serial)
					return
				}
			}
			if p.snaps[len(p.snaps)-1].serial != p.serial {
				t.Errorf("published serial %d != last ring serial %d", p.serial, p.snaps[len(p.snaps)-1].serial)
				return
			}
			if p.lookup(p.serial) != p.current() {
				t.Error("lookup(current serial) != current table")
				return
			}
		}
	}()

	v := rpki.VRP{Prefix: mp("203.0.113.0/24"), MaxLength: 24, AS: 64501}
	waitBounded(t, "500 publishes", func() error {
		for i := 0; i < 500; i++ {
			if i%2 == 0 {
				srv.ApplyDelta([]rpki.VRP{v}, nil)
			} else {
				srv.ApplyDelta(nil, []rpki.VRP{v})
			}
		}
		return nil
	})
	close(stopRead)
	waitBounded(t, "the reader stopping", func() error { wg.Wait(); return nil })

	if got := srv.Serial(); got != SerialAdvance(1, 500) {
		t.Fatalf("serial after 500 publishes = %d, want %d", got, SerialAdvance(1, 500))
	}
	waitBounded(t, "closing the cache", func() error { srv.Close(); return nil })
}

// watchedConn is the cache's side of a router's pipe. It closes writing when
// the writer's first Write starts, and queued when the handler starts its
// ninth Read: each of a router's eight 8-byte queries, written one Write
// each, takes one Read, so by then the handler has queued an answer to all
// eight.
type watchedConn struct {
	net.Conn
	writing, queued chan struct{}
	writes, reads   atomic.Int32
}

func (w *watchedConn) Write(b []byte) (int, error) {
	if w.writes.Add(1) == 1 {
		close(w.writing)
	}
	return w.Conn.Write(b)
}

func (w *watchedConn) Read(b []byte) (int, error) {
	if w.reads.Add(1) == 9 {
		close(w.queued)
	}
	return w.Conn.Read(b)
}
