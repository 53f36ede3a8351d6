package rtr

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rov"
	"repro/internal/rpki"
)

// This file pins the upstream loop — the RFC 8210 §6 timer machine and the
// reconnect cycle around it — through MultiSupervisor with one scripted
// upstream and a fake clock.

// fakeClock is a controllable clock: every timerAfter call is surfaced on
// reqs, and the test fires timers explicitly, advancing Now by the timer's
// duration.
type fakeClock struct {
	mu   sync.Mutex
	now  time.Time
	reqs chan fakeTimer
}

type fakeTimer struct {
	d  time.Duration
	ch chan time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1700000000, 0), reqs: make(chan fakeTimer, 16)}
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *fakeClock) After(d time.Duration) <-chan time.Time {
	t := fakeTimer{d: d, ch: make(chan time.Time, 1)}
	f.reqs <- t
	return t.ch
}

// advance moves the clock without firing anything.
func (f *fakeClock) advance(d time.Duration) time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.now = f.now.Add(d)
	return f.now
}

// fire advances the clock past the timer's deadline and fires it.
func (f *fakeClock) fire(t fakeTimer) { t.ch <- f.advance(t.d) }

// nextTimer returns the next armed timer or fails the test after a timeout.
func (f *fakeClock) nextTimer(t *testing.T) fakeTimer {
	t.Helper()
	select {
	case tm := <-f.reqs:
		return tm
	case <-time.After(5 * time.Second):
		t.Fatal("the upstream loop armed no timer")
		return fakeTimer{}
	}
}

// sameVRPs compares two delta slices regardless of order.
func sameVRPs(a, b []rpki.VRP) bool {
	if len(a) != len(b) {
		return false
	}
	am := vrpSet(a)
	for _, v := range b {
		if _, ok := am[v]; !ok {
			return false
		}
	}
	return true
}

// recorded is one recorded subscriber delivery.
type recorded struct {
	ann, wd []rpki.VRP
}

// harness wires a one-upstream MultiSupervisor to a channel-fed dialer, a
// fake clock, and recording subscribers. The redial backoff is a constant
// 10s with the jitter pinned to zero, so every backoff timer reads 5s.
type harness struct {
	m       *MultiSupervisor
	fc      *fakeClock
	conns   chan net.Conn
	deltas  chan recorded
	resets  chan []rpki.VRP
	updates chan Serial
	runErr  chan error
}

func newHarness(t *testing.T) *harness {
	t.Helper()
	h := &harness{
		fc:      newFakeClock(),
		conns:   make(chan net.Conn, 4),
		deltas:  make(chan recorded, 16),
		resets:  make(chan []rpki.VRP, 4),
		updates: make(chan Serial, 16),
		runErr:  make(chan error, 1),
	}
	h.m = NewMultiSupervisor(Upstream{Name: "scripted", Dial: func() (net.Conn, error) {
		select {
		case c := <-h.conns:
			return c, nil
		default:
			return nil, errors.New("connection refused")
		}
	}})
	h.m.BackoffMin = 10 * time.Second
	h.m.BackoffMax = 10 * time.Second
	h.m.nowFn = h.fc.Now
	h.m.afterFn = h.fc.After
	h.m.jitterFn = func() float64 { return 0 }
	h.m.OnUpdate = func(serial Serial) { h.updates <- serial }
	h.m.Subscribe(func(ann, wd []rpki.VRP) {
		h.deltas <- recorded{ann: append([]rpki.VRP(nil), ann...), wd: append([]rpki.VRP(nil), wd...)}
	})
	h.m.OnReset(func(table []rpki.VRP) {
		h.resets <- append([]rpki.VRP(nil), table...)
	})
	return h
}

func (h *harness) start() { go func() { h.runErr <- h.m.Run() }() }

func (h *harness) stop(t *testing.T) {
	t.Helper()
	h.m.Stop()
	if err := <-h.runErr; err != nil {
		t.Fatalf("Run returned %v after Stop", err)
	}
}

// pipe queues a connection for the next dial and returns the cache's end.
func (h *harness) pipe() net.Conn {
	cli, srv := net.Pipe()
	h.conns <- cli
	return srv
}

func (h *harness) stats() UpstreamStats { return h.m.Stats().Upstreams[0] }

func (h *harness) wantUpdate(t *testing.T, serial Serial) {
	t.Helper()
	select {
	case s := <-h.updates:
		if s != serial {
			t.Fatalf("sync serial = %d, want %d", s, serial)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("no sync at serial %d", serial)
	}
}

func (h *harness) wantDelta(t *testing.T, ann, wd []rpki.VRP) {
	t.Helper()
	select {
	case d := <-h.deltas:
		if !sameVRPs(d.ann, ann) || !sameVRPs(d.wd, wd) {
			t.Fatalf("delta = +%v -%v, want +%v -%v", d.ann, d.wd, ann, wd)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no delta delivered")
	}
}

func (h *harness) wantNoDelta(t *testing.T) {
	t.Helper()
	select {
	case d := <-h.deltas:
		t.Fatalf("unexpected delta +%v -%v", d.ann, d.wd)
	default:
	}
}

// skipTimer asserts the next armed timer's duration without firing it (the
// refresh timer, left pending when the connection dies).
func (h *harness) skipTimer(t *testing.T, d time.Duration) fakeTimer {
	t.Helper()
	timer := h.fc.nextTimer(t)
	if timer.d != d {
		t.Fatalf("armed timer = %v, want %v", timer.d, d)
	}
	return timer
}

// fireTimer asserts and fires the next armed timer.
func (h *harness) fireTimer(t *testing.T, d time.Duration) {
	t.Helper()
	h.fc.fire(h.skipTimer(t, d))
}

// expectQuery reads one PDU from the cache's end of a scripted connection
// and checks it is a Reset Query (session < 0) or the given Serial Query.
func expectQuery(conn net.Conn, session int, serial Serial) error {
	pdu, _, err := ReadPDU(conn)
	if err != nil {
		return err
	}
	if session < 0 {
		if _, ok := pdu.(*ResetQuery); !ok {
			return fmt.Errorf("got %T %+v, want Reset Query", pdu, pdu)
		}
		return nil
	}
	if q, ok := pdu.(*SerialQuery); !ok || q.SessionID != uint16(session) || q.Serial != serial {
		return fmt.Errorf("got %T %+v, want Serial Query for session %#x serial %d", pdu, pdu, session, serial)
	}
	return nil
}

// answer serves one response: Cache Response, the announcements, and an End
// of Data advertising Refresh 1800s, Retry 300s and the given Expire.
func answer(conn io.Writer, session uint16, serial Serial, expire uint32, announce ...rpki.VRP) error {
	if err := WritePDU(conn, Version1, &CacheResponse{SessionID: session}); err != nil {
		return err
	}
	for _, v := range announce {
		if err := WritePDU(conn, Version1, &Prefix{Flags: FlagAnnounce, VRP: v}); err != nil {
			return err
		}
	}
	return WritePDU(conn, Version1, &EndOfData{
		SessionID: session, Serial: serial, Refresh: 1800, Retry: 300, Expire: expire,
	})
}

// TestUpstreamRefreshAndRetryFakeClock drives the RFC 8210 state machine
// over a scripted cache with a fake clock: the initial sync adopts the
// cache's End of Data timers; with no Serial Notify ever sent, the Refresh
// timer triggers a sync; that sync fails with an Error Report that leaves
// the session framed, so the loop waits out the Retry timer on the same
// connection; the retry then succeeds.
func TestUpstreamRefreshAndRetryFakeClock(t *testing.T) {
	h := newHarness(t)
	srv := h.pipe()
	defer srv.Close()

	const session = 0x1234
	srvErr := make(chan error, 1)
	go func() {
		srvErr <- func() error {
			// 1) Initial sync: the stateless client sends a Reset Query.
			if err := expectQuery(srv, -1, 0); err != nil {
				return err
			}
			if err := answer(srv, session, 7, 3600); err != nil {
				return err
			}
			// 2) Refresh-triggered sync: fail it with an Error Report.
			if err := expectQuery(srv, session, 7); err != nil {
				return err
			}
			if err := WritePDU(srv, Version1, &ErrorReport{Code: ErrInternalError, Text: "transient failure"}); err != nil {
				return err
			}
			// 3) Retry sync: succeed with an empty incremental update.
			if err := expectQuery(srv, session, 7); err != nil {
				return err
			}
			return answer(srv, session, 8, 3600)
		}()
	}()

	h.start()
	h.wantUpdate(t, 7)
	// Idle: the loop must arm the *adopted* Refresh interval, not the
	// configured default. No Serial Notify arrives; firing Refresh must
	// trigger a sync, which the cache fails.
	h.fireTimer(t, 1800*time.Second)
	retry := h.skipTimer(t, 300*time.Second)
	// RFC 8210 §6: one failed sync must NOT discard the data — only the
	// Expire window does. 1800s have passed of the 3600s window.
	if !h.m.Healthy() {
		t.Fatal("failed sync discarded data still inside the Expire window")
	}
	if st := h.stats(); st.Dials != 1 || !st.Up {
		t.Fatalf("a framed sync failure inside the Expire window must keep the connection: %+v", st)
	}
	// Firing Retry must trigger another sync, which succeeds.
	h.fc.fire(retry)
	h.wantUpdate(t, 8)
	if !h.m.Healthy() {
		t.Fatal("unhealthy after successful retry")
	}
	// Back to idle: Refresh armed again.
	h.skipTimer(t, 1800*time.Second)
	if err := <-srvErr; err != nil {
		t.Fatalf("scripted cache: %v", err)
	}
	h.stop(t)
	if u := h.m.ups[0]; u.refresh != 1800*time.Second || u.retry != 300*time.Second || u.expire != 3600*time.Second {
		t.Fatalf("timers not adopted: refresh=%v retry=%v expire=%v", u.refresh, u.retry, u.expire)
	}
}

// TestUpstreamRetryStopsAtExpire pins the far end of the Retry window: a
// cache that keeps the session framed but fails every sync is retried on the
// Retry interval only while the data is inside its Expire window; the retry
// that finds it expired ends the connection, the upstream is reported down,
// and the loop redials — with a Reset Query, because §6 forbids resuming a
// delta stream onto expired data.
func TestUpstreamRetryStopsAtExpire(t *testing.T) {
	h := newHarness(t)
	srv := h.pipe()
	defer srv.Close()

	const session = 0x0e0e
	go func() {
		if expectQuery(srv, -1, 0) != nil || answer(srv, session, 7, 900) != nil {
			return
		}
		for { // every later query fails, framed
			if _, _, err := ReadPDU(srv); err != nil {
				return
			}
			if WritePDU(srv, Version1, &ErrorReport{Code: ErrNoDataAvailable, Text: "still validating"}) != nil {
				return
			}
		}
	}()

	h.start()
	h.wantUpdate(t, 7)
	// Expire 900s: the refresh (1800s) lands past it, so the first failed
	// sync already finds the data expired — no Retry timer, straight to the
	// redial backoff.
	h.fireTimer(t, 1800*time.Second)
	backoff := h.skipTimer(t, 5*time.Second)
	if h.m.Healthy() || h.m.Active() != -1 {
		t.Fatalf("healthy=%v active=%d after the Expire window passed on a failing cache", h.m.Healthy(), h.m.Active())
	}
	if st := h.stats(); st.Up || st.Failovers != 1 {
		t.Fatalf("expired upstream not reported down: %+v", st)
	}
	srv2 := h.pipe()
	defer srv2.Close()
	queryErr := make(chan error, 1)
	go func() { queryErr <- expectQuery(srv2, -1, 0) }()
	h.fc.fire(backoff)
	if err := <-queryErr; err != nil {
		t.Fatalf("redial after expiry: %v", err)
	}
	h.stop(t)
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
	h := newHarness(t)
	srv := h.pipe()
	defer srv.Close()
	h.start()

	const session = 0x7a11
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	// Initial sync: the stateless client sends a Reset Query.
	must(expectQuery(srv, -1, 0))
	must(answer(srv, session, 7, 7200))
	h.wantUpdate(t, 7)
	refresh := h.skipTimer(t, 1800*time.Second)

	// Deliver only the HEADER of a Serial Notify for serial 8: the dispatch
	// loop is now blocked mid-PDU, exactly where the old design's deadline
	// would cut.
	var notify bytes.Buffer
	must(WritePDU(&notify, Version1, &SerialNotify{SessionID: session, Serial: 8}))
	raw := notify.Bytes()
	_, err := srv.Write(raw[:headerLen])
	must(err)

	// The Refresh timer fires across the half-received PDU; the
	// refresh-triggered Serial Query goes out on the intact write side.
	h.fc.fire(refresh)
	must(expectQuery(srv, session, 7))

	// Now the notify's body arrives; the PDU completes in frame, then the
	// cache answers the query. The dispatch loop routes the notify to the
	// notify channel and the response to the waiting sync — nothing parses
	// garbage.
	_, err = srv.Write(raw[headerLen:])
	must(err)
	must(answer(srv, session, 8, 7200))
	h.wantUpdate(t, 8)

	// The notify (serial 8) was satisfied by that very sync: the client
	// drops it as stale, so the loop goes back to a plain Refresh wait
	// instead of a spurious immediate sync. One more round proves the stream
	// is still framed after the boundary.
	h.fireTimer(t, 1800*time.Second)
	must(expectQuery(srv, session, 8))
	must(answer(srv, session, 8, 7200))
	h.wantUpdate(t, 8)

	h.stop(t)
}

// TestUpstreamNotifyVsRefreshRace drives the exact race window the old
// design lost: a cache update (whose Serial Notify is racing toward the
// client) concurrent with the Refresh timer firing. Whatever interleaving
// the race takes, the dispatch loop keeps the stream framed and the loop
// converges without ever entering an error path. Run under -race by make
// race.
func TestUpstreamNotifyVsRefreshRace(t *testing.T) {
	set := testVRPs()
	srv := NewServer(set)
	addr, stop := startServer(t, srv)
	defer stop()

	fc := newFakeClock()
	m := NewMultiSupervisor(Upstream{Name: addr, Dial: func() (net.Conn, error) { return net.Dial("tcp", addr) }})
	m.nowFn, m.afterFn = fc.Now, fc.After
	live := rov.NewLiveIndex(rpki.NewSet(nil))
	m.Subscribe(live.Apply)
	var updates atomic.Int32
	m.OnUpdate = func(Serial) { updates.Add(1) }
	runErr := make(chan error, 1)
	go func() { runErr <- m.Run() }()

	waitFor(t, func() bool { return updates.Load() >= 1 })
	refresh := fc.nextTimer(t)

	next := addVRPs(set, rpki.VRP{Prefix: mp("10.0.0.0/8"), MaxLength: 8, AS: 7})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); srv.UpdateSet(next) }()
	go func() { defer wg.Done(); fc.fire(refresh) }()
	wg.Wait()

	// The refresh-triggered sync, the notify-triggered one, or both run;
	// either way the table converges on the first connection.
	waitFor(t, func() bool { return liveTable(live).Equal(next) })
	if st := m.Stats().Upstreams[0]; !m.Healthy() || st.Dials != 1 || !st.Up {
		t.Fatalf("healthy=%v after notify-vs-refresh race: %+v", m.Healthy(), st)
	}
	m.Stop()
	if err := <-runErr; err != nil {
		t.Fatalf("Run returned %v after Stop", err)
	}
}

// TestUpstreamConnFailureWhileIdle pins the Done branch of the idle select:
// when the connection dies while the loop idles between syncs, that is a
// connection failure, not a refresh — the pending Refresh timer is abandoned,
// the upstream is reported down at once, and the next timer armed is the
// redial backoff. The data stays usable (Healthy) inside its Expire window,
// and the redial resumes the session by Serial Query.
func TestUpstreamConnFailureWhileIdle(t *testing.T) {
	h := newHarness(t)
	srv := h.pipe()
	h.start()

	const session = 0x1dfe
	if err := expectQuery(srv, -1, 0); err != nil {
		t.Fatal(err)
	}
	if err := answer(srv, session, 7, 3600); err != nil {
		t.Fatal(err)
	}
	h.wantUpdate(t, 7)
	h.skipTimer(t, 1800*time.Second) // the refresh timer, never fired

	// Sever the connection while the loop idles.
	srv.Close()
	backoff := h.skipTimer(t, 5*time.Second)
	if st := h.stats(); st.Up || st.Failovers != 1 || h.m.Active() != -1 {
		t.Fatalf("idle connection failure not reported down: %+v active=%d", st, h.m.Active())
	}
	if !h.m.Healthy() {
		t.Fatal("a dead connection alone must not expire the data")
	}

	srv2 := h.pipe()
	defer srv2.Close()
	h.fc.fire(backoff)
	if err := expectQuery(srv2, session, 7); err != nil {
		t.Fatalf("redial did not resume the session: %v", err)
	}
	if err := answer(srv2, session, 7, 3600); err != nil {
		t.Fatal(err)
	}
	h.wantUpdate(t, 7)
	if st := h.stats(); !st.Up || st.Failbacks != 1 || st.SerialResumes != 1 {
		t.Fatalf("recovery not counted: %+v", st)
	}
	h.stop(t)
}

// TestUpstreamSyncTimeoutUnwedgesSilentCache pins the liveness watchdog: a
// cache that accepts the connection and reads the query but never answers
// would block the exchange forever (the client has no read deadline by
// design), so SyncTimeout must tear the session down promptly — the loop's
// cue to redial.
func TestUpstreamSyncTimeoutUnwedgesSilentCache(t *testing.T) {
	h := newHarness(t)
	h.m.syncTimeout = 50 * time.Millisecond
	srv := h.pipe()
	defer srv.Close()

	// The wedged cache: consume the query, then go silent forever.
	go func() { _, _, _ = ReadPDU(srv) }()

	h.start()
	h.skipTimer(t, 5*time.Second) // nextTimer's 5s limit is the promptness bound
	if st := h.stats(); st.Dials != 1 || st.Generations != 0 || st.Up {
		t.Fatalf("silent cache: %+v, want one dial, no completed sync, down", st)
	}
	// The watchdog closed the client's end: the cache sees EOF.
	srv.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, _, err := ReadPDU(srv); err == nil {
		t.Fatal("watchdog did not close the wedged connection")
	}
	h.stop(t)
}

// TestUpstreamBackoffSequence pins the redial schedule: dial failures back
// off exponentially from BackoffMin, capped at BackoffMax, each delay drawn
// from [backoff/2, backoff) by the jitter source, and every attempt is
// counted.
func TestUpstreamBackoffSequence(t *testing.T) {
	for _, jitter := range []float64{0, 0.5, 0.999} {
		t.Run(fmt.Sprint("jitter=", jitter), func(t *testing.T) {
			fc := newFakeClock()
			m := NewMultiSupervisor(Upstream{Name: "dead", Dial: func() (net.Conn, error) {
				return nil, errors.New("connection refused")
			}})
			m.BackoffMin = 8 * time.Second
			m.BackoffMax = 60 * time.Second
			m.nowFn, m.afterFn = fc.Now, fc.After
			m.jitterFn = func() float64 { return jitter }
			runErr := make(chan error, 1)
			go func() { runErr <- m.Run() }()

			// backoff: 8 -> 16 -> 32 -> 64(capped 60) -> 60 -> ...
			backoffs := []time.Duration{8 * time.Second, 16 * time.Second, 32 * time.Second, 60 * time.Second, 60 * time.Second, 60 * time.Second}
			for i, b := range backoffs {
				timer := fc.nextTimer(t)
				want := b/2 + time.Duration(jitter*float64(b-b/2))
				if timer.d != want || timer.d < b/2 || timer.d >= b {
					t.Fatalf("backoff delay #%d = %v, want %v in [%v, %v)", i, timer.d, want, b/2, b)
				}
				if i < len(backoffs)-1 {
					fc.fire(timer)
				}
			}
			// The last timer is left pending, so the dial counter is stable.
			st := m.Stats().Upstreams[0]
			if st.Dials != len(backoffs) || st.DialFailures != st.Dials {
				t.Fatalf("stats = %+v, want %d dials, all failed", st, len(backoffs))
			}
			if st.Generations != 0 || m.Healthy() {
				t.Fatalf("never-synced upstream reports generations=%d healthy=%v", st.Generations, m.Healthy())
			}
			m.Stop()
			if err := <-runErr; err != nil {
				t.Fatalf("Run returned %v after Stop", err)
			}
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

	h := newHarness(t)
	scriptErr := make(chan error, 3)

	// Connection 1: fresh start, full sync of {v1, v2} at serial 7.
	srv1 := h.pipe()
	go func() {
		scriptErr <- func() error {
			if err := expectQuery(srv1, -1, 0); err != nil {
				return fmt.Errorf("conn1: %w", err)
			}
			return answer(srv1, sessA, 7, 3600, v1, v2)
		}()
	}()
	h.start()
	h.wantUpdate(t, 7)
	h.wantDelta(t, []rpki.VRP{v1, v2}, nil)

	// Kill the connection while idle; the pending refresh timer is abandoned
	// and the loop arms its backoff instead.
	srv1.Close()
	h.skipTimer(t, 1800*time.Second)

	// Connection 2: the loop must resume with a Serial Query carrying
	// session A and serial 7; the cache serves the delta to serial 8.
	srv2 := h.pipe()
	go func() {
		scriptErr <- func() error {
			if err := expectQuery(srv2, sessA, 7); err != nil {
				return fmt.Errorf("conn2: %w", err)
			}
			return answer(srv2, sessA, 8, 3600, v3)
		}()
	}()
	h.fireTimer(t, 5*time.Second) // backoff = min 10s, jitter 0 -> half
	h.wantUpdate(t, 8)
	h.wantDelta(t, []rpki.VRP{v3}, nil)

	srv2.Close()
	h.skipTimer(t, 1800*time.Second)

	// Connection 3: the cache restarted with session B and table {v1, v4}.
	// The carried Serial Query is answered with Cache Reset; the client
	// falls back to Reset Query, and the delta delivered to subscribers is
	// the diff against the carried {v1, v2, v3} — not a blind full table.
	srv3 := h.pipe()
	defer srv3.Close()
	go func() {
		scriptErr <- func() error {
			if err := expectQuery(srv3, sessA, 8); err != nil {
				return fmt.Errorf("conn3: %w", err)
			}
			if err := WritePDU(srv3, Version1, &CacheReset{}); err != nil {
				return err
			}
			if err := expectQuery(srv3, -1, 0); err != nil {
				return fmt.Errorf("conn3 fallback: %w", err)
			}
			return answer(srv3, sessB, 2, 3600, v1, v4)
		}()
	}()
	h.fireTimer(t, 5*time.Second)
	h.wantUpdate(t, 2)
	h.wantDelta(t, []rpki.VRP{v4}, []rpki.VRP{v2, v3})

	for i := 0; i < 3; i++ {
		if err := <-scriptErr; err != nil {
			t.Fatalf("scripted cache: %v", err)
		}
	}
	st := h.stats()
	if st.Generations != 3 || st.SerialResumes != 1 || st.ResetFallbacks != 1 || st.Rebuilds != 0 {
		t.Fatalf("stats = %+v, want 3 generations, 1 serial resume, 1 reset fallback, 0 rebuilds", st)
	}
	if !h.m.Healthy() {
		t.Fatal("unhealthy after successful resync")
	}
	h.stop(t)
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

	h := newHarness(t)
	// Constant 600s backoff (jitter 0 -> 300s delay) to step the clock.
	h.m.BackoffMin = 600 * time.Second
	h.m.BackoffMax = 600 * time.Second
	scriptErr := make(chan error, 1)

	// Connection 1: full sync of {v1} at serial 7, Expire 3600s.
	srv1 := h.pipe()
	go func() {
		scriptErr <- func() error {
			if err := expectQuery(srv1, -1, 0); err != nil {
				return err
			}
			return answer(srv1, sessA, 7, 3600, v1)
		}()
	}()
	h.start()
	h.wantUpdate(t, 7)
	h.wantDelta(t, []rpki.VRP{v1}, nil)
	if err := <-scriptErr; err != nil {
		t.Fatalf("scripted cache: %v", err)
	}

	srv1.Close()
	h.skipTimer(t, 1800*time.Second)

	// The cache now flaps: every dial is accepted and immediately severed,
	// so no sync ever completes. Each redial cycle advances the clock by
	// 300s; the data must stay healthy for the remainder of the 3600s
	// window measured from the first connection's sync — not from the latest
	// reconnect — and then flip unhealthy exactly when it closes.
	for cycle := 1; ; cycle++ {
		if cycle > 12 {
			t.Fatal("still healthy after the Expire window passed")
		}
		h.pipe().Close() // sever before the client can sync
		h.fireTimer(t, 300*time.Second)
		// After this fire the clock is at 300*cycle seconds past the sync.
		if elapsed := time.Duration(cycle) * 300 * time.Second; elapsed < 3600*time.Second {
			if !h.m.Healthy() {
				t.Fatalf("flapping cache aged the data out early: unhealthy %v after last sync", elapsed)
			}
		} else {
			if h.m.Healthy() {
				t.Fatalf("still healthy %v after last sync", elapsed)
			}
			break
		}
	}

	// The next connection reaches a recovered cache (new session, new
	// table). The carried session expired, so the client starts over with a
	// Reset Query and subscribers are rebuilt from the full table, with no
	// delta.
	srv2 := h.pipe()
	defer srv2.Close()
	go func() {
		scriptErr <- func() error {
			if err := expectQuery(srv2, -1, 0); err != nil {
				return fmt.Errorf("recovery after expiry: %w", err)
			}
			return answer(srv2, sessC, 1, 3600, v1, v5)
		}()
	}()
	h.fireTimer(t, 300*time.Second)
	h.wantUpdate(t, 1)
	select {
	case table := <-h.resets:
		if !sameVRPs(table, []rpki.VRP{v1, v5}) {
			t.Fatalf("reset table = %v, want {v1, v5}", table)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no reset delivered after expiry")
	}
	h.wantNoDelta(t)
	if err := <-scriptErr; err != nil {
		t.Fatalf("scripted cache: %v", err)
	}
	if !h.m.Healthy() {
		t.Fatal("unhealthy after post-expiry resync")
	}
	st := h.stats()
	if st.Rebuilds != 1 || st.SerialResumes != 0 || st.ResetFallbacks != 0 {
		t.Fatalf("stats = %+v, want exactly 1 rebuild and no carried-session resumes", st)
	}
	h.stop(t)
}
