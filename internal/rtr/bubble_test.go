//go:build goexperiment.synctest

package rtr

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/synctest"
	"time"

	"repro/internal/rov"
	"repro/internal/rpki"
)

// This file pins the upstream loop — the RFC 8210 §6 timer machine and the
// reconnect cycle around it — in testing/synctest bubbles, whose clock moves
// only when every goroutine in the bubble is blocked: each test asserts the
// exact virtual instant at which the loop acts. A cache is the test itself,
// scripting the far end of a net.Pipe, or a real Server behind an in-memory
// listener.
//
// Teardown: a t.Fatal inside a bubble ends only its root goroutine, and the
// redial loop always has a timer armed, so a supervisor left running
// advances virtual time until the binary times out. Every bubble defers Stop
// (and Server.Close) as soon as it starts them, and every wait is bounded by
// a virtual day: receives go through recv, and scripted pipes have deadlines.
// A root stuck while a redial timer keeps the clock moving, which synctest
// does not report as a deadlock, trips bubble's watchdog.

// bubbled reports that this test binary runs the bubbles itself.
const bubbled = true

// day bounds every wait in a bubble.
const day = 24 * time.Hour

// bubble runs f in a testing/synctest bubble under a watchdog: a bubble still
// running a virtual day after it started prints every goroutine's stack and
// panics with t's name. The longest passing bubble runs 1h33m20s of virtual
// time (TestMultiSupervisorFailoverFailback). A root stuck in a send nobody
// receives, while a follower's 20 ms redial loop keeps the clock moving, gets
// to a virtual day in about a minute under -race; a virtual week would take
// seven, past any package timeout. f's defers run before the watchdog is
// cancelled, so a teardown that hangs trips it too.
//
// A root blocked on a sync.Mutex is not durably blocked, so the bubble's clock
// stops and the virtual watchdog never fires. A second one, outside the
// bubble, runs on the wall clock for waitBound's share of the time left, and
// dumps and panics the same way.
func bubble(t *testing.T, f func()) {
	stuck := func(what string) func() {
		return func() {
			buf := make([]byte, 1<<20)
			os.Stderr.Write(buf[:runtime.Stack(buf, true)])
			panic(t.Name() + ": the bubble is still running " + what + " after it started; every goroutine's stack is above")
		}
	}
	bound := waitBound(t, day)
	wall := time.AfterFunc(bound, stuck(bound.Round(time.Millisecond).String()+" of wall-clock time"))
	defer wall.Stop()
	synctest.Run(func() {
		watchdog := time.AfterFunc(day, stuck("a virtual day"))
		defer watchdog.Stop()
		f()
	})
}

// recv receives from ch, failing the test if nothing arrives within a
// virtual day.
func recv[T any](t *testing.T, ch <-chan T) T {
	t.Helper()
	timer := time.NewTimer(day)
	defer timer.Stop()
	select {
	case v := <-ch:
		return v
	case <-timer.C:
		t.Fatal("nothing received within a virtual day")
		var zero T
		return zero
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// advance moves the bubble's clock on by d and returns once everything due
// by then has run.
func advance(d time.Duration) {
	time.Sleep(d)
	synctest.Wait()
}

// at fails the test unless exactly d of virtual time has passed since t0.
func at(t *testing.T, t0 time.Time, d time.Duration, what string) {
	t.Helper()
	if got := time.Since(t0); got != d {
		t.Fatalf("%s at +%v, want +%v", what, got, d)
	}
}

// pipeListener is an in-memory net.Listener: each dial hands the server one
// end of a net.Pipe and the router the other.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "pipe"} }

// cacheAddr is one cache's address across restarts: serve binds a Server to
// it, and Dial reaches the Server bound last, or is refused once that one
// has closed.
type cacheAddr struct{ atomic.Pointer[pipeListener] }

func (a *cacheAddr) serve(srv *Server) {
	l := &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
	a.Store(l)
	go func() {
		_ = srv.Serve(l)
		l.Close() // a Server closed before Serve began leaves l open
	}()
}

func (a *cacheAddr) Dial() (net.Conn, error) {
	if l := a.Load(); l != nil {
		cli, srv := net.Pipe()
		select {
		case l.conns <- srv:
			return cli, nil
		case <-l.done:
		}
	}
	return nil, errors.New("connection refused")
}

// queued dials the connections queued on conns, and is refused when none is.
func queued(conns chan net.Conn) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		select {
		case c := <-conns:
			return c, nil
		default:
			return nil, errors.New("connection refused")
		}
	}
}

// harness wires a one-upstream MultiSupervisor to a queued dialer and
// recording subscribers. The redial backoff is a constant 10s with the
// jitter pinned to zero, so every redial comes 5s after the connection
// ended. Build it inside the bubble.
type harness struct {
	m       *MultiSupervisor
	conns   chan net.Conn
	deltas  chan recorded
	resets  chan []rpki.VRP
	updates chan Serial
}

func newHarness() *harness {
	// Each buffer holds more than a test queues or reads, so neither the
	// test nor the supervisor's callbacks wait on the other.
	h := &harness{
		conns:   make(chan net.Conn, 4),
		deltas:  make(chan recorded, 16),
		resets:  make(chan []rpki.VRP, 4),
		updates: make(chan Serial, 16),
	}
	h.m = NewMultiSupervisor(Upstream{Name: "scripted", Dial: queued(h.conns)})
	h.m.BackoffMin = 10 * time.Second
	h.m.BackoffMax = 10 * time.Second
	h.m.jitterFn = func() float64 { return 0 }
	h.m.OnUpdate = func(serial Serial) { h.updates <- serial }
	h.m.Subscribe(func(ann, wd []rpki.VRP) {
		h.deltas <- recorded{ann: slices.Clone(ann), wd: slices.Clone(wd)}
	})
	h.m.OnReset(func(table []rpki.VRP) { h.resets <- slices.Clone(table) })
	return h
}

// run starts m and returns the func that stops it, which the caller defers
// at once.
func run(t *testing.T, m *MultiSupervisor) (stop func()) {
	runErr := make(chan error, 1)
	go func() { runErr <- m.Run() }()
	return func() {
		m.Stop()
		if err := <-runErr; err != nil {
			t.Errorf("Run returned %v after Stop", err)
		}
	}
}

// scripted queues a connection on conns for the next dial and returns the
// cache's end, which fails every read and write after a virtual day.
func scripted(conns chan<- net.Conn) net.Conn {
	cli, srv := net.Pipe()
	_ = srv.SetDeadline(time.Now().Add(day))
	conns <- cli
	return srv
}

func (h *harness) pipe() net.Conn { return scripted(h.conns) }

func (h *harness) stats() UpstreamStats { return h.m.Stats().Upstreams[0] }

func (h *harness) wantUpdate(t *testing.T, serial Serial) {
	t.Helper()
	if s := recv(t, h.updates); s != serial {
		t.Fatalf("sync serial = %d, want %d", s, serial)
	}
}

func (h *harness) wantDelta(t *testing.T, ann, wd []rpki.VRP) {
	t.Helper()
	if d := recv(t, h.deltas); !sameVRPs(d.ann, ann) || !sameVRPs(d.wd, wd) {
		t.Fatalf("delta = +%v -%v, want +%v -%v", d.ann, d.wd, ann, wd)
	}
}

// TestUpstreamRefreshAndRetryFakeClock drives the RFC 8210 state machine
// over a scripted cache: the initial sync adopts the cache's End of Data
// timers; with no Serial Notify ever sent, the adopted Refresh triggers a
// sync; that sync fails with an Error Report that leaves the session
// framed, so the loop waits out the adopted Retry on the same connection;
// the retry then succeeds, and Refresh is armed again.
func TestUpstreamRefreshAndRetryFakeClock(t *testing.T) {
	bubble(t, func() {
		h := newHarness()
		srv := h.pipe()
		defer srv.Close()
		defer run(t, h.m)()

		const session = 0x1234
		must(t, expectQuery(srv, -1, 0))
		must(t, answer(srv, session, 7, 3600))
		h.wantUpdate(t, 7)
		t0 := time.Now()

		must(t, expectQuery(srv, session, 7))
		at(t, t0, 1800*time.Second, "the refresh-triggered Serial Query")
		must(t, WritePDU(srv, Version1, &ErrorReport{Code: ErrInternalError, Text: "transient failure"}))
		synctest.Wait()
		// RFC 8210 §6: one failed sync must NOT discard the data — only the
		// Expire window does. 1800s have passed of the 3600s window.
		if st := h.stats(); !h.m.Healthy() || st.Dials != 1 || !st.Up {
			t.Fatalf("healthy=%v %+v: a framed sync failure inside the Expire window must keep the data and the connection", h.m.Healthy(), st)
		}

		must(t, expectQuery(srv, session, 7))
		at(t, t0, 2100*time.Second, "the retry")
		must(t, answer(srv, session, 8, 3600))
		h.wantUpdate(t, 8)
		if !h.m.Healthy() {
			t.Fatal("unhealthy after successful retry")
		}
		must(t, expectQuery(srv, session, 8))
		at(t, t0, 3900*time.Second, "the next refresh")
	})
}

// TestUpstreamRetryStopsAtExpire pins the far end of the Retry window: a
// cache that keeps the session framed but fails every sync is retried only
// while the data is inside its Expire window. Here the refresh (1800s)
// already lands past Expire (900s), so its failure ends the connection, the
// upstream is reported down, and the loop redials after its backoff — with
// a Reset Query, because §6 forbids resuming a delta stream onto expired
// data.
func TestUpstreamRetryStopsAtExpire(t *testing.T) {
	bubble(t, func() {
		h := newHarness()
		srv := h.pipe()
		defer srv.Close()
		defer run(t, h.m)()

		const session = 0x0e0e
		must(t, expectQuery(srv, -1, 0))
		must(t, answer(srv, session, 7, 900))
		h.wantUpdate(t, 7)
		t0 := time.Now()
		must(t, expectQuery(srv, session, 7))
		at(t, t0, 1800*time.Second, "the refresh-triggered Serial Query")
		must(t, WritePDU(srv, Version1, &ErrorReport{Code: ErrNoDataAvailable, Text: "still validating"}))
		synctest.Wait()
		if st := h.stats(); h.m.Healthy() || h.m.Active() != -1 || st.Up || st.Failovers != 1 {
			t.Fatalf("healthy=%v active=%d %+v: an expired failing upstream must be reported down", h.m.Healthy(), h.m.Active(), st)
		}

		srv2 := h.pipe()
		defer srv2.Close()
		must(t, expectQuery(srv2, -1, 0))
		at(t, t0, 1805*time.Second, "the redial after expiry")
	})
}

// TestSplitNotifyAcrossRefreshBoundary is the regression test for the
// mid-PDU read-deadline desync race the dispatch loop exists to remove. A
// Serial Notify is delivered split in two: its 8-byte header before the
// Refresh timer fires, its 4-byte body after. The old design reacted to the
// Refresh timer by slamming an already-passed read deadline onto the shared
// connection to evict the blocked WaitNotify goroutine — which here would
// kill ReadPDU between header and body, leaving 4 stray bytes on the stream
// to be misparsed as the next PDU's header; RFC 8210 has no resync point, so
// every subsequent exchange would read garbage and this test would fail at
// the serial-query assertions below. The dispatch loop never interrupts a
// read: the half-received PDU simply completes when its body arrives, and
// both the refresh-triggered sync and the one after it find a perfectly
// framed stream.
func TestSplitNotifyAcrossRefreshBoundary(t *testing.T) {
	bubble(t, func() {
		h := newHarness()
		srv := h.pipe()
		defer srv.Close()
		defer run(t, h.m)()

		const session = 0x7a11
		must(t, expectQuery(srv, -1, 0))
		must(t, answer(srv, session, 7, 7200))
		h.wantUpdate(t, 7)
		t0 := time.Now()

		// Deliver only the HEADER of a Serial Notify for serial 8: the
		// dispatch loop is now blocked mid-PDU, exactly where the old
		// design's deadline would cut.
		var notify bytes.Buffer
		must(t, WritePDU(&notify, Version1, &SerialNotify{SessionID: session, Serial: 8}))
		raw := notify.Bytes()
		_, err := srv.Write(raw[:headerLen])
		must(t, err)

		// The Refresh timer fires across the half-received PDU; the
		// refresh-triggered Serial Query goes out on the intact write side.
		must(t, expectQuery(srv, session, 7))
		at(t, t0, 1800*time.Second, "the refresh-triggered Serial Query")

		// Now the notify's body arrives; the PDU completes in frame, then
		// the cache answers the query. The dispatch loop routes the notify
		// to the notify channel and the response to the waiting sync.
		_, err = srv.Write(raw[headerLen:])
		must(t, err)
		must(t, answer(srv, session, 8, 7200))
		h.wantUpdate(t, 8)

		// The notify (serial 8) was satisfied by that very sync: the client
		// drops it as stale, so the next sync is the plain Refresh a full
		// interval later, not a spurious immediate one — on a stream that
		// is still framed.
		must(t, expectQuery(srv, session, 8))
		at(t, t0, 3600*time.Second, "the next refresh")
		must(t, answer(srv, session, 8, 7200))
		h.wantUpdate(t, 8)
	})
}

// TestUpstreamNotifyVsRefreshRace drives the exact race window the old
// design lost: a cache update (whose Serial Notify is racing toward the
// client) at the very instant the Refresh timer fires. Whatever order the
// scheduler picks, the dispatch loop keeps the stream framed and the loop
// converges on the first connection without ever entering an error path.
func TestUpstreamNotifyVsRefreshRace(t *testing.T) {
	bubble(t, func() {
		set := testVRPs()
		srv := NewServer(set)
		var addr cacheAddr
		addr.serve(srv)
		defer srv.Close()
		f := follow(Upstream{Name: "cache", Dial: addr.Dial})
		defer f.stop(t)
		synctest.Wait()

		time.Sleep(time.Duration(srv.Refresh) * time.Second)
		next := addVRPs(set, rpki.VRP{Prefix: mp("10.0.0.0/8"), MaxLength: 8, AS: 7})
		srv.UpdateSet(next)
		synctest.Wait()
		if !liveTable(f.live).Equal(next) {
			t.Fatal("the table did not converge after the notify-vs-refresh race")
		}
		if st := f.m.Stats().Upstreams[0]; !f.m.Healthy() || st.Dials != 1 || !st.Up {
			t.Fatalf("healthy=%v after notify-vs-refresh race: %+v", f.m.Healthy(), st)
		}
	})
}

// TestUpstreamConnFailureWhileIdle pins the Done branch of the idle select:
// when the connection dies while the loop idles between syncs, that is a
// connection failure, not a refresh — the pending Refresh is abandoned, the
// upstream is reported down at once, and the loop redials after its
// backoff. The data stays usable (Healthy) inside its Expire window, and the
// redial resumes the session by Serial Query.
func TestUpstreamConnFailureWhileIdle(t *testing.T) {
	bubble(t, func() {
		h := newHarness()
		srv := h.pipe()
		defer run(t, h.m)()

		const session = 0x1dfe
		must(t, expectQuery(srv, -1, 0))
		must(t, answer(srv, session, 7, 3600))
		h.wantUpdate(t, 7)
		t0 := time.Now()

		srv.Close() // sever the connection while the loop idles
		synctest.Wait()
		if st := h.stats(); st.Up || st.Failovers != 1 || h.m.Active() != -1 || !h.m.Healthy() {
			t.Fatalf("%+v active=%d healthy=%v: an idle connection failure is reported down and keeps the data", st, h.m.Active(), h.m.Healthy())
		}

		srv2 := h.pipe()
		defer srv2.Close()
		must(t, expectQuery(srv2, session, 7))
		at(t, t0, 5*time.Second, "the resuming redial")
		must(t, answer(srv2, session, 7, 3600))
		h.wantUpdate(t, 7)
		if st := h.stats(); !st.Up || st.Failbacks != 1 || st.SerialResumes != 1 {
			t.Fatalf("recovery not counted: %+v", st)
		}
	})
}

// TestUpstreamSyncTimeoutUnwedgesSilentCache pins the liveness watchdog: a
// cache that accepts the connection and reads the query but never answers
// would block the exchange forever (the client has no read deadline by
// design), so the watchdog tears the session down after the Retry interval
// in force — the RFC 8210 default, since this cache never advertised one —
// and the loop redials.
func TestUpstreamSyncTimeoutUnwedgesSilentCache(t *testing.T) {
	bubble(t, func() {
		h := newHarness()
		srv := h.pipe()
		defer srv.Close()
		defer run(t, h.m)()

		_, _, err := ReadPDU(srv) // the query; the cache never answers it
		must(t, err)
		t0 := time.Now()
		if _, _, err := ReadPDU(srv); err == nil {
			t.Fatal("the wedged connection carried another PDU")
		}
		at(t, t0, defaultRetry, "the watchdog closing the wedged connection")
		synctest.Wait()
		if st := h.stats(); st.Dials != 1 || st.Generations != 0 || st.Up {
			t.Fatalf("silent cache: %+v, want one dial, no completed sync, down", st)
		}
	})
}

// TestUpstreamBackoffSequence pins the redial schedule: dial failures back
// off exponentially from BackoffMin, capped at BackoffMax, each delay drawn
// from [backoff/2, backoff) by the jitter source, and every attempt is
// counted.
func TestUpstreamBackoffSequence(t *testing.T) {
	for _, jitter := range []float64{0, 0.5, 0.999} {
		t.Run(fmt.Sprint("jitter=", jitter), func(t *testing.T) {
			bubble(t, func() {
				dials := make(chan time.Time, 16) // more than the test reads
				m := NewMultiSupervisor(Upstream{Name: "dead", Dial: func() (net.Conn, error) {
					dials <- time.Now()
					return nil, errors.New("connection refused")
				}})
				m.BackoffMin = 8 * time.Second
				m.BackoffMax = 60 * time.Second
				m.jitterFn = func() float64 { return jitter }
				defer run(t, m)()

				// backoff: 8 -> 16 -> 32 -> 64(capped 60) -> 60 -> ...
				backoffs := []time.Duration{8 * time.Second, 16 * time.Second, 32 * time.Second, 60 * time.Second, 60 * time.Second, 60 * time.Second}
				last := recv(t, dials)
				for i, b := range backoffs {
					next := recv(t, dials)
					want := b/2 + time.Duration(jitter*float64(b-b/2))
					if d := next.Sub(last); d != want || d < b/2 || d >= b {
						t.Fatalf("backoff delay #%d = %v, want %v in [%v, %v)", i, d, want, b/2, b)
					}
					last = next
				}
				synctest.Wait()
				st := m.Stats().Upstreams[0]
				if st.Dials != len(backoffs)+1 || st.DialFailures != st.Dials {
					t.Fatalf("stats = %+v, want %d dials, all failed", st, len(backoffs)+1)
				}
				if st.Generations != 0 || m.Healthy() {
					t.Fatalf("never-synced upstream reports generations=%d healthy=%v", st.Generations, m.Healthy())
				}
			})
		})
	}
}

// TestUpstreamSerialResumeAndResetFallback drives three connections over
// scripted caches: a fresh full sync, a reconnect resumed purely by Serial
// Query carrying the cached session and serial, and a reconnect against a
// restarted cache (new session ID) that falls back to Reset Query — with the
// subscriber delta computed against the carried table, so a delta-fed index
// resyncs without a rebuild.
func TestUpstreamSerialResumeAndResetFallback(t *testing.T) {
	v1 := rpki.VRP{Prefix: mp("10.0.0.0/8"), MaxLength: 8, AS: 1}
	v2 := rpki.VRP{Prefix: mp("192.0.2.0/24"), MaxLength: 24, AS: 2}
	v3 := rpki.VRP{Prefix: mp("198.51.100.0/24"), MaxLength: 24, AS: 3}
	v4 := rpki.VRP{Prefix: mp("2001:db8::/32"), MaxLength: 48, AS: 64496}
	const sessA, sessB = 0x1111, 0x2222
	bubble(t, func() {
		h := newHarness()
		srv1 := h.pipe()
		defer srv1.Close()
		defer run(t, h.m)()

		// Connection 1: fresh start, full sync of {v1, v2} at serial 7.
		must(t, expectQuery(srv1, -1, 0))
		must(t, answer(srv1, sessA, 7, 3600, v1, v2))
		h.wantUpdate(t, 7)
		h.wantDelta(t, []rpki.VRP{v1, v2}, nil)
		t0 := time.Now()

		// Connection 2, after the first dies idle: the loop resumes with a
		// Serial Query carrying session A and serial 7; the cache serves the
		// delta to serial 8.
		srv1.Close()
		srv2 := h.pipe()
		defer srv2.Close()
		must(t, expectQuery(srv2, sessA, 7))
		at(t, t0, 5*time.Second, "the first redial")
		must(t, answer(srv2, sessA, 8, 3600, v3))
		h.wantUpdate(t, 8)
		h.wantDelta(t, []rpki.VRP{v3}, nil)

		// Connection 3: the cache restarted with session B and table
		// {v1, v4}. The carried Serial Query is answered with Cache Reset;
		// the client falls back to Reset Query, and the delta delivered to
		// subscribers is the diff against the carried {v1, v2, v3} — not a
		// blind full table.
		srv2.Close()
		srv3 := h.pipe()
		defer srv3.Close()
		must(t, expectQuery(srv3, sessA, 8))
		at(t, t0, 10*time.Second, "the second redial")
		must(t, WritePDU(srv3, Version1, &CacheReset{}))
		must(t, expectQuery(srv3, -1, 0))
		must(t, answer(srv3, sessB, 2, 3600, v1, v4))
		h.wantUpdate(t, 2)
		h.wantDelta(t, []rpki.VRP{v4}, []rpki.VRP{v2, v3})

		st := h.stats()
		if st.Generations != 3 || st.SerialResumes != 1 || st.ResetFallbacks != 1 || st.Rebuilds != 0 {
			t.Fatalf("stats = %+v, want 3 generations, 1 serial resume, 1 reset fallback, 0 rebuilds", st)
		}
		if !h.m.Healthy() {
			t.Fatal("unhealthy after successful resync")
		}
	})
}

// TestUpstreamExpireAcrossFlappingConnections pins the Expire clock to the
// last *successful sync*: a cache that accepts every redial but never
// completes a sync cannot keep stale data looking healthy, and once the
// window passes the carried session is dropped — the next successful sync
// starts with a Reset Query and reaches subscribers as a reset (rebuild),
// not a delta.
func TestUpstreamExpireAcrossFlappingConnections(t *testing.T) {
	v1 := rpki.VRP{Prefix: mp("10.0.0.0/8"), MaxLength: 8, AS: 1}
	v5 := rpki.VRP{Prefix: mp("203.0.113.0/24"), MaxLength: 24, AS: 5}
	const sessA, sessC = 0x1111, 0x3333
	bubble(t, func() {
		h := newHarness()
		// Constant 600s backoff (jitter 0 -> 300s delay) to step the clock.
		h.m.BackoffMin = 600 * time.Second
		h.m.BackoffMax = 600 * time.Second
		srv1 := h.pipe()
		defer run(t, h.m)()

		must(t, expectQuery(srv1, -1, 0))
		must(t, answer(srv1, sessA, 7, 3600, v1))
		h.wantUpdate(t, 7)
		h.wantDelta(t, []rpki.VRP{v1}, nil)
		t0 := time.Now()
		srv1.Close()

		// The cache now flaps: every redial, 300s apart, is accepted and
		// severed before the client can sync. The data must stay healthy
		// for the rest of the 3600s window measured from the sync — not
		// from the latest reconnect — and turn unhealthy the instant it
		// closes.
		for elapsed := 300 * time.Second; elapsed <= 3600*time.Second; elapsed += 300 * time.Second {
			h.pipe().Close()
			advance(300 * time.Second)
			if len(h.conns) != 0 {
				t.Fatalf("no redial at +%v", elapsed)
			}
			if healthy := h.m.Healthy(); healthy != (elapsed < 3600*time.Second) {
				t.Fatalf("healthy=%v +%v after the last sync, with Expire 3600s", healthy, elapsed)
			}
		}

		// The next connection reaches a recovered cache (new session, new
		// table). The carried session expired, so the client starts over
		// with a Reset Query and subscribers are rebuilt from the full
		// table, with no delta.
		srv2 := h.pipe()
		defer srv2.Close()
		must(t, expectQuery(srv2, -1, 0))
		at(t, t0, 3900*time.Second, "the redial after expiry")
		must(t, answer(srv2, sessC, 1, 3600, v1, v5))
		h.wantUpdate(t, 1)
		if table := recv(t, h.resets); !sameVRPs(table, []rpki.VRP{v1, v5}) {
			t.Fatalf("reset table = %v, want {v1, v5}", table)
		}
		synctest.Wait()
		if len(h.deltas) != 0 {
			t.Fatalf("a delta was delivered beside the reset: %+v", <-h.deltas)
		}
		if !h.m.Healthy() {
			t.Fatal("unhealthy after post-expiry resync")
		}
		if st := h.stats(); st.Rebuilds != 1 || st.SerialResumes != 0 || st.ResetFallbacks != 0 {
			t.Fatalf("stats = %+v, want exactly 1 rebuild and no carried-session resumes", st)
		}
	})
}

// TestHealthyAfterFailoverKeepsStandbyClock pins whose Expire clock Healthy
// reads after a switch. RFC 8210 §6 measures Expire from the last successful
// sync *with that cache*: a standby that synced at t0 and takes over at t0+Δ
// serves data that expires at t0+Expire, not t0+Δ+Expire — the switch must
// not restart the window. (It did when the supervisor kept its own clock and
// stamped it at every delivery.)
func TestHealthyAfterFailoverKeepsStandbyClock(t *testing.T) {
	v1 := rpki.VRP{Prefix: mp("10.0.0.0/8"), MaxLength: 8, AS: 1}
	v2 := rpki.VRP{Prefix: mp("192.0.2.0/24"), MaxLength: 24, AS: 2}
	bubble(t, func() {
		// One scripted connection per cache; every later dial is refused.
		connsP, connsS := make(chan net.Conn, 1), make(chan net.Conn, 1)
		srvP, srvS := scripted(connsP), scripted(connsS)
		defer srvP.Close()
		defer srvS.Close()
		m := NewMultiSupervisor(Upstream{Name: "primary", Dial: queued(connsP)}, Upstream{Name: "standby", Dial: queued(connsS)})
		m.BackoffMin = time.Hour
		live := rov.NewLiveIndex(rpki.NewSet(nil))
		m.Subscribe(live.Apply)
		defer run(t, m)()
		t0 := time.Now()

		// Both caches sync at t0 and advertise Expire 3600s; the standby
		// holds one VRP more, so the failover is visible as a delta.
		must(t, expectQuery(srvP, -1, 0))
		must(t, answer(srvP, 0x5151, 7, 3600, v1))
		must(t, expectQuery(srvS, -1, 0))
		must(t, answer(srvS, 0x5151, 7, 3600, v1, v2))
		synctest.Wait()
		if m.Active() != 0 || !m.Stats().Upstreams[1].Up || !liveTable(live).Equal(rpki.NewSet([]rpki.VRP{v1})) {
			t.Fatalf("after both syncs: active=%d %+v", m.Active(), m.Stats())
		}

		// The primary dies at t0+1000s; the standby takes over.
		advance(1000 * time.Second)
		srvP.Close()
		synctest.Wait()
		if m.Active() != 1 || !m.Healthy() || !liveTable(live).Equal(rpki.NewSet([]rpki.VRP{v1, v2})) {
			t.Fatalf("active=%d healthy=%v right after failover at t0+1000s", m.Active(), m.Healthy())
		}
		// The standby's refresh at t0+1800s goes unanswered and its
		// watchdog drops it at t0+2100s; what Healthy reads is still the
		// clock of the cache that served last, which synced at t0.
		advance(2599 * time.Second)
		if !m.Healthy() {
			t.Fatalf("unhealthy at t0+%v, one second inside the standby's window", time.Since(t0))
		}
		advance(time.Second)
		if m.Healthy() {
			t.Fatalf("still healthy at t0+%v: the switch restarted the standby's Expire window", time.Since(t0))
		}
	})
}

// TestFollowLifecycle is the plain single-cache life of a follower: the
// initial sync happens inside Run, a cache update travels notify → sync →
// delta → OnUpdate on the same connection, and Stop is idempotent.
func TestFollowLifecycle(t *testing.T) {
	bubble(t, func() {
		set := testVRPs()
		srv := NewServer(set)
		var addr cacheAddr
		addr.serve(srv)
		defer srv.Close()
		f := follow(Upstream{Name: "cache", Dial: addr.Dial})
		defer f.stop(t)
		synctest.Wait()
		if !liveTable(f.live).Equal(set) || !f.m.Healthy() || f.m.Active() != 0 {
			t.Fatalf("healthy=%v active=%d after initial sync", f.m.Healthy(), f.m.Active())
		}
		next := addVRPs(set, rpki.VRP{Prefix: mp("10.0.0.0/8"), MaxLength: 8, AS: 7})
		srv.UpdateSet(next)
		synctest.Wait()
		if st := f.m.Stats().Upstreams[0]; !liveTable(f.live).Equal(next) || f.updates.Load() != 2 || st.Dials != 1 || st.Generations != 1 {
			t.Fatalf("a notify-driven update must arrive on the first connection: %+v, %d updates", st, f.updates.Load())
		}
		f.m.Stop() // and again in f.stop: idempotent
	})
}

// TestFollowExpiry lets the data age out: the loop adopts the cache's
// advertised timers after each sync, so the short Expire comes from the
// server's End of Data, and with no further sync (Refresh stays at an hour)
// health must decay exactly when it passes, while the connection stays up.
func TestFollowExpiry(t *testing.T) {
	bubble(t, func() {
		srv := NewServer(testVRPs())
		srv.Expire = 1
		var addr cacheAddr
		addr.serve(srv)
		defer srv.Close()
		f := follow(Upstream{Name: "cache", Dial: addr.Dial})
		defer f.stop(t)
		advance(time.Second - 1)
		if !f.m.Healthy() {
			t.Fatal("unhealthy 1ns inside the advertised Expire window")
		}
		advance(1)
		if f.m.Healthy() {
			t.Fatal("still healthy when the advertised Expire window closed")
		}
		if st := f.m.Stats().Upstreams[0]; !st.Up || !st.Active {
			t.Fatalf("expiry alone must not take the upstream down: %+v", st)
		}
	})
}

// TestMultiSupervisorExpiryRebuild exercises the one path that is allowed
// to rebuild: every cache stays unreachable past the Expire window the
// serving cache advertised (1s here), so the delivered table is no longer a
// valid diff base. When a cache returns — with a new session and a
// different table — the delivery must go through OnReset, and the
// supervisor must count it as a rebuild.
func TestMultiSupervisorExpiryRebuild(t *testing.T) {
	bubble(t, func() {
		table1 := testVRPs()
		srv1 := NewServer(table1)
		srv1.Expire = 1 // seconds; the upstream adopts this advertised window
		var addr cacheAddr
		addr.serve(srv1)
		defer srv1.Close()
		f := follow(Upstream{Name: "cache", Dial: addr.Dial})
		defer f.stop(t)
		m := f.m
		synctest.Wait()
		if !liveTable(f.live).Equal(table1) || !m.Healthy() {
			t.Fatal("not synced and healthy after the initial sync")
		}

		// Total outage: health decays when the window closes, however often
		// the loop redials meanwhile.
		srv1.Close()
		advance(time.Second)
		if m.Healthy() || m.Active() != -1 {
			t.Fatalf("healthy=%v active=%d when the Expire window closed, cache down", m.Healthy(), m.Active())
		}

		// The cache returns as a different process: new session, new table.
		// The next redial comes within one BackoffMax.
		table2 := addVRPs(table1, rpki.VRP{Prefix: mp("198.51.100.0/24"), MaxLength: 24, AS: 64504})
		srv2 := NewServer(table2)
		srv2.Expire = 1
		srv2.SetSession(srv1.SessionID()+1, 1)
		addr.serve(srv2)
		defer srv2.Close()
		advance(m.BackoffMax)
		if !liveTable(f.live).Equal(table2) {
			t.Fatal("the returning cache's table was not delivered")
		}
		st := m.Stats()
		if st.Rebuilds != 1 || st.Upstreams[0].Rebuilds != 1 || f.resets.Load() != 1 {
			t.Fatalf("recovery from an expired outage must be one rebuild: %+v, %d resets", st, f.resets.Load())
		}
		if st.Upstreams[0].Failovers != 1 || st.Upstreams[0].Failbacks != 1 || m.Active() != 0 {
			t.Fatalf("outage and recovery not counted: %+v, active %d", st.Upstreams[0], m.Active())
		}
	})
}

// TestRealServerRestart is the recovery proof against the real in-repo
// server: the cache process is killed mid-session and restarted at the same
// address, first with its previous session (the loop must resume by Serial
// Query, no full sync, no rebuild), then with a fresh session ID and a
// different table (the loop must fall back through Cache Reset to a Reset
// Query, and the LiveIndex must converge to the new table by delta). Each
// outage is one backoff, far inside the Expire window measured from the last
// successful sync, so the follower never reports unhealthy.
func TestRealServerRestart(t *testing.T) {
	bubble(t, func() {
		table1 := testVRPs()
		srv1 := NewServer(table1)
		var addr cacheAddr
		addr.serve(srv1)
		defer srv1.Close()
		f := follow(Upstream{Name: "cache", Dial: addr.Dial})
		defer f.stop(t)
		synctest.Wait()
		// restart kills old and brings srv up in its place; the follower
		// must have converged on want within one BackoffMax.
		restart := func(old, srv *Server, want *rpki.Set) UpstreamStats {
			t.Helper()
			old.Close()
			addr.serve(srv)
			advance(f.m.BackoffMax)
			if !liveTable(f.live).Equal(want) || !f.m.Healthy() {
				t.Fatalf("healthy=%v, table %v after a restart; want %v", f.m.Healthy(), liveTable(f.live).VRPs(), want.VRPs())
			}
			return f.m.Stats().Upstreams[0]
		}

		// Restart from a state snapshot — same session, serial and table —
		// then push an update: the restarted cache accepts the carried
		// Serial Query and the update arrives incrementally.
		srv2 := NewServer(table1)
		srv2.SetSession(srv1.SessionID(), srv1.Serial())
		defer srv2.Close()
		table2 := addVRPs(table1, rpki.VRP{Prefix: mp("10.0.0.0/8"), MaxLength: 8, AS: 64500})
		srv2.UpdateSet(table2)
		if st := restart(srv1, srv2, table2); st.SerialResumes != 1 || st.ResetFallbacks != 0 || st.Rebuilds != 0 {
			t.Fatalf("same-session restart must resume by Serial Query, without reset or rebuild: %+v", st)
		}

		// Restart fresh — new session, no retained deltas, a changed table:
		// the carried Serial Query is answered with Cache Reset, and the
		// Reset Query's table reaches the subscriber as the diff against
		// the carried one.
		table3 := rpki.NewSet([]rpki.VRP{
			{Prefix: mp("168.122.0.0/16"), MaxLength: 16, AS: 111},
			{Prefix: mp("203.0.113.0/24"), MaxLength: 24, AS: 64501},
			{Prefix: mp("2001:db8:1::/48"), MaxLength: 64, AS: 64496},
		})
		srv3 := NewServer(table3)
		srv3.SetSession(srv1.SessionID()+1, 1)
		defer srv3.Close()
		if st := restart(srv2, srv3, table3); st.ResetFallbacks != 1 || st.Rebuilds != 0 || f.resets.Load() != 0 {
			t.Fatalf("new-session restart must resync by delta through the Reset fallback: %+v, %d resets", st, f.resets.Load())
		}
		if got := f.live.Snapshot().Validate(mp("10.0.0.0/8"), 64500); got == rov.Valid {
			t.Fatal("withdrawn-by-restart VRP still Valid")
		}
	})
}

// TestMultiSupervisorFailoverFailback is the cache-set proof against real
// servers: a primary and a slightly divergent standby; the primary is killed
// at +1000s, the standby publishes an update at +3000s while it serves, and
// the primary returns with a newer table at +5000s. Service must fail over
// and fail back, each switch reaching the subscriber as a delta, however
// the two sides of it came from different caches — no outage exceeds the
// Expire window, so OnReset never fires. With the jitter drawn from a
// seeded source the scenario replays exactly: run twice, it makes the same
// dials, switches, failovers and failbacks, and every delivery at the same
// virtual instant.
func TestMultiSupervisorFailoverFailback(t *testing.T) {
	tableP := testVRPs()
	tableS := addVRPs(tableP, rpki.VRP{Prefix: mp("203.0.113.0/24"), MaxLength: 24, AS: 64501})
	tableS2 := addVRPs(tableS, rpki.VRP{Prefix: mp("10.64.0.0/10"), MaxLength: 12, AS: 64502})
	tableP2 := addVRPs(tableP, rpki.VRP{Prefix: mp("192.0.2.0/24"), MaxLength: 24, AS: 64503})
	scenario := func() (st MultiSupervisorStats, log []string) {
		bubble(t, func() {
			start := time.Now()
			srvP, srvS, srvP2 := NewServer(tableP), NewServer(tableS), NewServer(tableP2)
			srvP2.SetSession(srvP.SessionID()+1, 1)
			defer srvP.Close()
			defer srvS.Close()
			defer srvP2.Close()
			var addrP, addrS cacheAddr
			addrP.serve(srvP)
			addrS.serve(srvS)
			m := NewMultiSupervisor(
				Upstream{Name: "primary", Dial: addrP.Dial},
				// The standby answers a second late, so the primary syncs
				// and serves first, whatever the scheduler's order.
				Upstream{Name: "standby", Dial: func() (net.Conn, error) {
					time.Sleep(time.Second)
					return addrS.Dial()
				}})
			// Only the primary's loop redials, so one goroutine draws.
			m.jitterFn = rand.New(rand.NewSource(1)).Float64
			live := rov.NewLiveIndex(rpki.NewSet(nil))
			m.Subscribe(live.Apply)
			m.Subscribe(func(ann, wd []rpki.VRP) {
				log = append(log, fmt.Sprintf("+%v: +%d -%d", time.Since(start), len(ann), len(wd)))
			})
			m.OnReset(func([]rpki.VRP) { t.Error("a switch inside the Expire window reset the subscribers") })
			defer run(t, m)()
			check := func(want *rpki.Set, active int) {
				t.Helper()
				if !liveTable(live).Equal(want) || m.Active() != active || !m.Healthy() {
					t.Fatalf("+%v: active %d, healthy %v, table %v; want active %d, table %v",
						time.Since(start), m.Active(), m.Healthy(), liveTable(live).VRPs(), active, want.VRPs())
				}
			}

			advance(1000 * time.Second)
			check(tableP, 0)
			srvP.Close()
			synctest.Wait()
			check(tableS, 1)
			advance(2000 * time.Second)
			srvS.UpdateSet(tableS2)
			synctest.Wait()
			check(tableS2, 1)
			advance(2000 * time.Second)
			addrP.serve(srvP2)
			advance(defaultRetry) // the backoff is capped at the Retry interval
			check(tableP2, 0)
			st = m.Stats()
		})
		return st, log
	}
	st, log := scenario()
	if t.Failed() {
		return
	}
	p, s := st.Upstreams[0], st.Upstreams[1]
	if st.Switches != 2 || st.Rebuilds != 0 || p.Failovers != 1 || p.Failbacks != 1 || p.Dials < 3 || len(log) != 4 {
		t.Fatalf("stats %+v, deliveries %+v: want one failover, one failback, no rebuild, 4 deliveries", st, log)
	}
	if p.Name != "primary" || s.Name != "standby" || !p.Active || s.Active || !s.Up {
		t.Fatalf("upstream stats after the failback: %+v", st.Upstreams)
	}
	t.Logf("%d primary dials; deliveries %q", p.Dials, log)
	if st2, log2 := scenario(); !reflect.DeepEqual(st, st2) || !slices.Equal(log, log2) {
		t.Fatalf("replay differs:\n%+v %+v\n%+v %+v", st, log, st2, log2)
	}
}

// dialClient connects a Client to the Server bound to addr.
func dialClient(t *testing.T, addr *cacheAddr) *Client {
	t.Helper()
	conn, err := addr.Dial()
	must(t, err)
	return NewClient(conn)
}

// TestConcurrentSyncResetDispatch hammers the dispatch loop with concurrent
// Sync and Reset callers while the cache keeps updating: the exchange slot
// must keep every exchange intact and the table convergent. A caller stuck
// for good on the slot or on its request is a deadlock the bubble reports.
func TestConcurrentSyncResetDispatch(t *testing.T) {
	bubble(t, func() {
		set := testVRPs()
		srv := NewServer(set)
		var addr cacheAddr
		addr.serve(srv)
		defer srv.Close()
		c := dialClient(t, &addr)
		defer c.Close()

		const goroutines, rounds = 4, 8
		errs := make(chan error, goroutines)
		for g := 0; g < goroutines; g++ {
			go func() {
				for i := 0; i < rounds; i++ {
					var err error
					if g%2 == 0 {
						_, err = c.Sync()
					} else {
						err = c.Reset()
					}
					if err != nil {
						errs <- err
						return
					}
				}
				errs <- nil
			}()
		}
		// Updates (and their Serial Notifies) race the exchanges.
		cur := set
		for i := 0; i < rounds; i++ {
			cur = addVRPs(cur, rpki.VRP{Prefix: mp("10.0.0.0/8"), MaxLength: uint8(8 + i), AS: rpki.ASN(300 + i)})
			srv.UpdateSet(cur)
		}
		for g := 0; g < goroutines; g++ {
			if err := recv(t, errs); err != nil {
				t.Fatalf("concurrent exchange failed: %v", err)
			}
		}
		_, err := c.Sync()
		must(t, err)
		if !c.Set().Equal(cur) {
			t.Fatalf("after concurrent exchanges: %d VRPs, want %d", c.Len(), cur.Len())
		}
	})
}

// TestSubscribeBlockingConsumer pins where delivery runs: on the goroutine
// that called Sync, never on the dispatch loop. A consumer that blocks
// inside its callback holds up that Sync (and FlushSubscribers) until it
// returns, while the dispatch loop keeps reading — a newer Serial Notify
// still reaches Notify(). Then concurrent Sync callers race a publisher:
// deliveries must not overlap and must arrive in commit order.
func TestSubscribeBlockingConsumer(t *testing.T) {
	bubble(t, func() {
		set := testVRPs()
		srv := NewServer(set)
		var addr cacheAddr
		addr.serve(srv)
		defer srv.Close()
		c := dialClient(t, &addr)
		defer c.Close()

		// Consumer state is plain: deliveries are serialized by the client,
		// and the test reads it after a Sync or FlushSubscribers of its own.
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
		_, err := c.Sync()
		must(t, err)
		if len(serials) != 1 {
			t.Fatalf("Sync returned with %d deliveries made, want 1", len(serials))
		}

		cur := set
		publish := func(i int) {
			cur = addVRPs(cur, rpki.VRP{Prefix: mp("10.0.0.0/8"), MaxLength: uint8(8 + i%24), AS: rpki.ASN(400 + i)})
			srv.UpdateSet(cur)
		}
		publish(0)
		_, err = c.WaitNotify()
		must(t, err)
		syncDone := make(chan error, 1)
		go func() {
			_, err := c.Sync()
			syncDone <- err
		}()
		recv(t, entered)
		// The consumer is parked inside its callback. The dispatch loop is
		// not: the next publish's notify comes through.
		publish(1)
		if s := recv(t, c.Notify()); s != srv.Serial() {
			t.Fatalf("notified of serial %d, want %d", s, srv.Serial())
		}
		flushed := make(chan struct{})
		go func() {
			c.FlushSubscribers()
			close(flushed)
		}()
		synctest.Wait()
		select {
		case err := <-syncDone:
			t.Fatalf("Sync returned (%v) while its delivery was still running", err)
		case <-flushed:
			t.Fatal("FlushSubscribers returned while a delivery was still running")
		default:
		}
		close(gate)
		must(t, recv(t, syncDone))
		recv(t, flushed)

		// Concurrent callers: whichever goroutine's Sync commits an update
		// delivers it before the next exchange starts.
		const callers, rounds = 4, 16
		errs := make(chan error, callers)
		for g := 0; g < callers; g++ {
			go func() {
				for i := 0; i < rounds; i++ {
					if _, err := c.Sync(); err != nil {
						errs <- err
						return
					}
				}
				errs <- nil
			}()
		}
		for i := 2; i < 2+rounds; i++ {
			publish(i)
		}
		for g := 0; g < callers; g++ {
			if err := recv(t, errs); err != nil {
				t.Fatalf("concurrent Sync: %v", err)
			}
		}
		_, err = c.Sync()
		must(t, err)
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
	})
}

// TestSyncFailureSetsErr pins the order MultiSupervisor's retry-or-redial
// branch relies on: a Sync that fails the session returns with Err already
// set, whether its own write or the dispatch loop saw the connection die
// first. The cache's end closes while the Reset Query waits to be read, so
// the dispatch loop never takes the request. Every later call then fails
// fast with the same error: none keeps the exchange slot.
func TestSyncFailureSetsErr(t *testing.T) {
	bubble(t, func() {
		cli, cache := net.Pipe()
		c := NewClient(cli)
		defer c.Close()

		type outcome struct{ err, sticky error }
		synced := make(chan outcome, 1)
		go func() {
			_, err := c.Sync()
			synced <- outcome{err, c.Err()}
		}()
		synctest.Wait() // the query is unread: nobody reads the cache's end
		cache.Close()
		o := recv(t, synced)
		if o.err == nil {
			t.Fatal("Sync succeeded over a closed connection")
		}
		if o.sticky == nil {
			t.Fatalf("Sync returned %v with Err still nil", o.err)
		}

		later := make(chan error, 3)
		go func() {
			_, err := c.Sync()
			later <- err
			later <- c.Reset()
			c.FlushSubscribers()
			later <- c.Err()
		}()
		for _, call := range []string{"Sync", "Reset", "FlushSubscribers"} {
			if err := recv(t, later); !errors.Is(err, o.sticky) {
				t.Fatalf("%s after the failure: %v, want the sticky %v", call, err, o.sticky)
			}
		}
		recv(t, c.Done())
	})
}
