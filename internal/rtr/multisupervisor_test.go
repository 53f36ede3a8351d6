package rtr

import (
	"errors"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rov"
	"repro/internal/rpki"
)

// addVRPs returns a fresh set holding base plus the extra VRPs.
func addVRPs(base *rpki.Set, extra ...rpki.VRP) *rpki.Set {
	vrps := append([]rpki.VRP(nil), base.VRPs()...)
	vrps = append(vrps, extra...)
	return rpki.NewSet(vrps)
}

// relisten rebinds the exact address a killed listener held. Go listeners
// set SO_REUSEADDR, so the rebind normally succeeds at once; a short retry
// covers the window where the old socket is still tearing down.
func relisten(t *testing.T, addr string) net.Listener {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		l, err := net.Listen("tcp", addr)
		if err == nil {
			return l
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebinding %s: %v", addr, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// liveTable reads a table's (rov.Table, rov.LiveIndex) current VRPs as a
// normalized set.
func liveTable(l interface{ Snapshot() *rov.Index }) *rpki.Set {
	return rpki.NewSet(l.Snapshot().AppendVRPs(nil))
}

// follower is a router wired the way cmd/rtrclient -follow wires one: a
// MultiSupervisor over real listeners feeding a LiveIndex through
// Subscribe/OnReset, with millisecond backoff. resets counts OnReset
// deliveries, updates OnUpdate calls.
type follower struct {
	m               *MultiSupervisor
	live            *rov.LiveIndex
	resets, updates atomic.Int32
	runErr          chan error
}

func startFollower(addrs ...string) *follower {
	f := &follower{live: rov.NewLiveIndex(rpki.NewSet(nil)), runErr: make(chan error, 1)}
	var ups []Upstream
	for _, addr := range addrs {
		ups = append(ups, Upstream{Name: addr, Dial: func() (net.Conn, error) { return net.Dial("tcp", addr) }})
	}
	f.m = NewMultiSupervisor(ups...)
	f.m.BackoffMin = 2 * time.Millisecond
	f.m.BackoffMax = 20 * time.Millisecond
	f.m.Subscribe(f.live.Apply)
	f.m.OnReset(func(table []rpki.VRP) {
		f.resets.Add(1)
		f.live.ResetTo(table)
	})
	f.m.OnUpdate = func(Serial) { f.updates.Add(1) }
	go func() { f.runErr <- f.m.Run() }()
	return f
}

func (f *follower) stop(t *testing.T) {
	t.Helper()
	f.m.Stop()
	if err := <-f.runErr; err != nil {
		t.Errorf("Run returned %v after Stop", err)
	}
}

// serve starts srv on a fresh loopback port (or, when addr is non-empty,
// rebinds that exact address) and returns where it listens.
func serve(t *testing.T, srv *Server, addr string) string {
	t.Helper()
	var l net.Listener
	if addr != "" {
		l = relisten(t, addr)
	} else {
		var err error
		if l, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
	}
	go srv.Serve(l)
	return l.Addr().String()
}

// TestFollowLifecycle is the plain single-cache life of a follower: the
// initial sync happens inside Run, a cache update travels notify → sync →
// delta → OnUpdate, and Stop is idempotent.
func TestFollowLifecycle(t *testing.T) {
	set := testVRPs()
	srv := NewServer(set)
	addr, stop := startServer(t, srv)
	defer stop()

	f := startFollower(addr)

	waitFor(t, func() bool { return liveTable(f.live).Equal(set) })
	if !f.m.Healthy() || f.m.Active() != 0 {
		t.Fatalf("healthy=%v active=%d after initial sync", f.m.Healthy(), f.m.Active())
	}
	before := f.updates.Load()
	next := addVRPs(set, rpki.VRP{Prefix: mp("10.0.0.0/8"), MaxLength: 8, AS: 7})
	srv.UpdateSet(next)
	waitFor(t, func() bool { return liveTable(f.live).Equal(next) && f.updates.Load() > before })
	if st := f.m.Stats().Upstreams[0]; st.Dials != 1 || st.Generations != 1 {
		t.Fatalf("a notify-driven update must not reconnect: %+v", st)
	}
	f.stop(t)
	f.m.Stop() // idempotent
}

// TestFollowExpiry lets the data age out: the loop adopts the cache's
// advertised timers after each sync, so the short Expire comes from the
// server's End of Data, and with no further sync (Refresh stays at an hour)
// health must decay past it while the connection stays up.
func TestFollowExpiry(t *testing.T) {
	srv := NewServer(testVRPs())
	srv.Expire = 1
	addr, stop := startServer(t, srv)
	defer stop()

	f := startFollower(addr)
	defer f.stop(t)
	waitFor(t, f.m.Healthy)
	waitFor(t, func() bool { return !f.m.Healthy() })
	if st := f.m.Stats().Upstreams[0]; !st.Up || !st.Active {
		t.Fatalf("expiry alone must not take the upstream down: %+v", st)
	}
}

// TestRealServerRestart is the end-to-end recovery proof against the real
// in-repo server: the cache process is killed mid-session and restarted on
// the same address, first with its previous session (the loop must resume by
// Serial Query, no full sync, no rebuild), then with a fresh session ID and a
// different table (the loop must fall back through Cache Reset to a Reset
// Query, and the LiveIndex must converge to the post-restart table by delta).
// Throughout, the outage is far shorter than the Expire window measured from
// the last successful sync, so the follower must never report unhealthy. Run
// under -race by make race.
func TestRealServerRestart(t *testing.T) {
	table1 := testVRPs()
	srv1 := NewServer(table1)
	addr := serve(t, srv1, "")

	f := startFollower(addr)
	defer f.stop(t)
	stats := func() UpstreamStats { return f.m.Stats().Upstreams[0] }

	waitFor(t, func() bool { return liveTable(f.live).Equal(table1) })
	if !f.m.Healthy() {
		t.Fatal("unhealthy after initial sync")
	}
	healthyThroughout := func(phase string) {
		t.Helper()
		if !f.m.Healthy() {
			t.Fatalf("%s: unhealthy although the outage was far inside the Expire window", phase)
		}
	}
	sess, serial := srv1.SessionID(), srv1.Serial()

	// Phase 1: kill the cache mid-session and restart it from a state
	// snapshot — same session ID, same serial, same table — then push an
	// update. The loop must resume with a Serial Query (the restarted cache
	// accepts it: the session matches and the delta chain from the router's
	// serial is retained) and apply the update incrementally.
	srv1.Close()
	srv2 := NewServer(table1)
	srv2.SetSession(sess, serial)
	serve(t, srv2, addr)
	table2 := addVRPs(table1, rpki.VRP{Prefix: mp("10.0.0.0/8"), MaxLength: 8, AS: 64500})
	srv2.UpdateSet(table2)

	waitFor(t, func() bool { return liveTable(f.live).Equal(table2) })
	healthyThroughout("same-session restart")
	if st := stats(); st.SerialResumes < 1 || st.ResetFallbacks != 0 || st.Rebuilds != 0 {
		t.Fatalf("same-session restart must resume by Serial Query, without reset or rebuild: %+v", st)
	}

	// Phase 2: kill the cache again and restart it fresh — new session ID,
	// no retained deltas, and a changed table. The carried Serial Query is
	// answered with Cache Reset; the client falls back to a Reset Query, and
	// the LiveIndex converges to the post-restart table by the diff delta —
	// still no subscriber rebuild, because the carried table was usable for
	// diffing.
	srv2.Close()
	table3 := rpki.NewSet([]rpki.VRP{
		{Prefix: mp("168.122.0.0/16"), MaxLength: 16, AS: 111},
		{Prefix: mp("203.0.113.0/24"), MaxLength: 24, AS: 64501},
		{Prefix: mp("2001:db8:1::/48"), MaxLength: 64, AS: 64496},
	})
	srv3 := NewServer(table3)
	srv3.SetSession(sess+1, 1)
	serve(t, srv3, addr)
	defer srv3.Close()

	waitFor(t, func() bool { return liveTable(f.live).Equal(table3) })
	healthyThroughout("new-session restart")
	if st := stats(); st.ResetFallbacks < 1 || st.Rebuilds != 0 || f.resets.Load() != 0 {
		t.Fatalf("new-session restart must resync by delta through the Reset fallback: %+v, %d resets", st, f.resets.Load())
	}

	// The validation answers must match the post-restart table exactly.
	snap := f.live.Snapshot()
	for _, v := range table3.VRPs() {
		if got := snap.Validate(v.Prefix, v.AS); got != rov.Valid {
			t.Fatalf("post-restart Validate(%s, %v) = %v, want Valid", v.Prefix, v.AS, got)
		}
	}
	if got := snap.Validate(mp("10.0.0.0/8"), 64500); got == rov.Valid {
		t.Fatalf("withdrawn-by-restart VRP still Valid")
	}
}

// TestMultiSupervisorFailoverFailback is the end-to-end cache-set proof
// against real servers: a primary and a (slightly divergent) secondary
// cache, the primary killed mid-run, and later restarted with a newer
// table. The MultiSupervisor must fail over to the secondary and fail back
// to the primary, and every one of those switches must reach the
// subscriber as a structural delta — the OnReset path must never fire,
// because no outage exceeds the Expire window. Run under -race by make
// race.
func TestMultiSupervisorFailoverFailback(t *testing.T) {
	tableP := testVRPs()
	// The secondary validated a moment later: one extra ROA. The failover
	// delta must announce exactly that difference.
	tableS := addVRPs(tableP, rpki.VRP{Prefix: mp("203.0.113.0/24"), MaxLength: 24, AS: 64501})

	srvP := NewServer(tableP)
	addrP := serve(t, srvP, "")
	srvS := NewServer(tableS)
	addrS := serve(t, srvS, "")
	defer srvS.Close()

	f := startFollower(addrP, addrS)
	defer f.stop(t)
	m, live := f.m, f.live

	// Startup: the preferred upstream serves, whatever order the two
	// upstreams happened to sync in.
	waitFor(t, func() bool { return m.Active() == 0 && liveTable(live).Equal(tableP) })
	if !m.Healthy() {
		t.Fatal("unhealthy after initial sync")
	}
	waitFor(t, func() bool { return m.Stats().Upstreams[1].Up })
	base := m.Stats()

	// Phase 1: kill the primary. Service must move to the secondary, and
	// the subscriber table must converge to the secondary's view by delta.
	sess := srvP.SessionID()
	srvP.Close()
	waitFor(t, func() bool { return m.Active() == 1 && liveTable(live).Equal(tableS) })
	st := m.Stats()
	if st.Upstreams[0].Failovers < base.Upstreams[0].Failovers+1 {
		t.Fatalf("failover not counted: %+v", st.Upstreams[0])
	}
	if st.Switches < base.Switches+1 {
		t.Fatalf("switch not counted: %d -> %d", base.Switches, st.Switches)
	}
	if st.Rebuilds != 0 {
		t.Fatalf("failover must be a delta, not a rebuild: %+v", st)
	}

	// Phase 2: the secondary publishes an update while it serves; the
	// steady-state deliveries must keep flowing from the new serving
	// upstream.
	tableS2 := addVRPs(tableS, rpki.VRP{Prefix: mp("10.64.0.0/10"), MaxLength: 12, AS: 64502})
	srvS.UpdateSet(tableS2)
	waitFor(t, func() bool { return liveTable(live).Equal(tableS2) })

	// Phase 3: the primary returns with a fresher table than it died with.
	// The supervisor must fail back to it, again by delta: the subscriber
	// goes from the secondary's table to the new primary table without a
	// reset, no matter that the two sides of that diff came from different
	// caches.
	tableP2 := addVRPs(tableP, rpki.VRP{Prefix: mp("192.0.2.0/24"), MaxLength: 24, AS: 64503})
	failbacks := st.Upstreams[0].Failbacks
	srvP2 := NewServer(tableP2)
	srvP2.SetSession(sess+1, 1)
	serve(t, srvP2, addrP)
	defer srvP2.Close()

	waitFor(t, func() bool { return m.Active() == 0 && liveTable(live).Equal(tableP2) })
	end := m.Stats()
	if end.Upstreams[0].Failbacks < failbacks+1 {
		t.Fatalf("failback not counted: %+v", end.Upstreams[0])
	}
	if end.Rebuilds != 0 || f.resets.Load() != 0 {
		t.Fatalf("every switch should have been a delta: %+v, OnReset fired %d times", end, f.resets.Load())
	}
	if !m.Healthy() {
		t.Fatal("unhealthy at end although the serving upstream just synced")
	}
	if end.Upstreams[0].Name != addrP || end.Upstreams[1].Name != addrS {
		t.Fatalf("stats lost upstream names: %+v", end)
	}
	if !end.Upstreams[0].Active || end.Upstreams[1].Active {
		t.Fatalf("active flag wrong after failback: %+v", end)
	}
}

// TestMultiSupervisorExpiryRebuild exercises the one path that is allowed
// to rebuild: every cache stays unreachable past the Expire window the
// serving cache advertised (1s here), so the delivered table is no longer a
// valid diff base. When a cache returns — with a new session and a
// different table — the delivery must go through OnReset, and the
// supervisor must count it as a rebuild. Run under -race by make race.
func TestMultiSupervisorExpiryRebuild(t *testing.T) {
	table1 := testVRPs()
	srv1 := NewServer(table1)
	srv1.Expire = 1 // seconds; the upstream adopts this advertised window
	addr := serve(t, srv1, "")
	sess := srv1.SessionID()

	f := startFollower(addr)
	defer f.stop(t)
	m := f.m

	waitFor(t, func() bool { return liveTable(f.live).Equal(table1) })
	if !m.Healthy() {
		t.Fatal("unhealthy after initial sync")
	}

	// Total outage past the Expire window: health must decay to false
	// before any cache returns.
	srv1.Close()
	waitFor(t, func() bool { return !m.Healthy() })
	if a := m.Active(); a != -1 {
		t.Fatalf("Active() = %d during total outage, want -1", a)
	}

	// The cache returns as a different process: new session, new table.
	table2 := addVRPs(table1, rpki.VRP{Prefix: mp("198.51.100.0/24"), MaxLength: 24, AS: 64504})
	srv2 := NewServer(table2)
	srv2.Expire = 1
	srv2.SetSession(sess+1, 1)
	serve(t, srv2, addr)
	defer srv2.Close()

	waitFor(t, func() bool { return liveTable(f.live).Equal(table2) })
	// reconcile counts a rebuild once the OnReset callbacks have returned: the
	// table is visible before the counter moves.
	waitFor(t, func() bool { return m.Stats().Rebuilds >= 1 })
	st := m.Stats()
	if st.Rebuilds < 1 || st.Upstreams[0].Rebuilds < 1 || f.resets.Load() < 1 {
		t.Fatalf("recovery from an expired outage must be a rebuild: %+v, %d resets", st, f.resets.Load())
	}
	if st.Upstreams[0].Failovers < 1 || st.Upstreams[0].Failbacks < 1 {
		t.Fatalf("outage and recovery not counted: %+v", st.Upstreams[0])
	}
	if a := m.Active(); a != 0 {
		t.Fatalf("Active() = %d after recovery, want 0", a)
	}
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
	fc := newFakeClock()
	t0 := fc.Now()

	// One scripted connection per cache; every later dial is refused.
	dialer := func(conn net.Conn) func() (net.Conn, error) {
		var used atomic.Bool
		return func() (net.Conn, error) {
			if used.Swap(true) {
				return nil, errors.New("connection refused")
			}
			return conn, nil
		}
	}
	cliP, srvP := net.Pipe()
	cliS, srvS := net.Pipe()
	defer srvS.Close()
	m := NewMultiSupervisor(Upstream{Name: "primary", Dial: dialer(cliP)}, Upstream{Name: "standby", Dial: dialer(cliS)})
	m.nowFn = fc.Now // timers stay real: the hour-long refresh never fires
	m.BackoffMin = time.Hour
	live := rov.NewLiveIndex(rpki.NewSet(nil))
	m.Subscribe(live.Apply)
	runErr := make(chan error, 1)
	go func() { runErr <- m.Run() }()
	defer func() {
		m.Stop()
		<-runErr
	}()

	// Both caches sync at t0 and advertise Expire 3600s; the standby holds
	// one VRP more, so the failover is visible as a delta.
	for _, c := range []struct {
		conn  net.Conn
		table []rpki.VRP
	}{{srvP, []rpki.VRP{v1}}, {srvS, []rpki.VRP{v1, v2}}} {
		go func() {
			if expectQuery(c.conn, -1, 0) == nil {
				_ = answer(c.conn, 0x5151, 7, 3600, c.table...)
			}
		}()
	}
	waitFor(t, func() bool {
		return m.Active() == 0 && m.Stats().Upstreams[1].Up && liveTable(live).Equal(rpki.NewSet([]rpki.VRP{v1}))
	})

	// The primary dies at t0+1000s; the standby — last synced at t0 — takes over.
	fc.advance(1000 * time.Second)
	srvP.Close()
	waitFor(t, func() bool { return liveTable(live).Equal(rpki.NewSet([]rpki.VRP{v1, v2})) })
	if m.Active() != 1 || !m.Healthy() {
		t.Fatalf("active=%d healthy=%v right after failover at t0+1000s", m.Active(), m.Healthy())
	}
	fc.advance(2599 * time.Second)
	if !m.Healthy() {
		t.Fatalf("unhealthy at t0+%v, one second inside the standby's window", fc.Now().Sub(t0))
	}
	fc.advance(time.Second)
	if m.Healthy() {
		t.Fatalf("still healthy at t0+%v: the switch restarted the standby's Expire window", fc.Now().Sub(t0))
	}
}

// TestStopReleasesTables: a stopped supervisor somebody still holds — for its
// Stats, or while the follower replacing it starts from nothing — pins no
// table: each upstream's and the delivered one are let go once Run has
// returned, the accessors keep answering, and a Stop before Run does the same.
func TestStopReleasesTables(t *testing.T) {
	table := testVRPs()
	var addrs []string
	for i := 0; i < 2; i++ {
		srv := NewServer(table)
		defer srv.Close()
		addrs = append(addrs, serve(t, srv, ""))
	}
	f := startFollower(addrs...)
	waitFor(t, func() bool {
		st := f.m.Stats().Upstreams
		return liveTable(f.live).Equal(table) && st[0].Up && st[1].Up
	})
	if f.m.delivered.Len() != table.Len() || f.m.ups[1].table.Len() != table.Len() {
		t.Fatalf("running: delivered %d, standby %d VRPs, want %d", f.m.delivered.Len(), f.m.ups[1].table.Len(), table.Len())
	}
	f.stop(t)
	f.m.Stop() // a second Stop finds nothing left to release
	if f.m.delivered != nil {
		t.Error("a stopped supervisor still holds the delivered table")
	}
	for _, u := range f.m.ups {
		if u.table != nil {
			t.Errorf("a stopped supervisor still holds upstream %s's table", u.Name)
		}
	}
	if st := f.m.Stats(); len(st.Upstreams) != 2 || st.Upstreams[0].Generations != 1 {
		t.Errorf("Stats after Stop: %+v", st)
	}
	if f.m.Active() != 0 || !f.m.Healthy() {
		t.Errorf("after Stop: active %d healthy %v, want what the last delivery left", f.m.Active(), f.m.Healthy())
	}
	if !liveTable(f.live).Equal(table) {
		t.Error("the subscriber's table changed with Stop")
	}

	early := NewMultiSupervisor(Upstream{Name: "never dialled", Dial: func() (net.Conn, error) { return nil, errors.New("dialled") }})
	early.Stop()
	if early.delivered != nil || early.ups[0].table != nil {
		t.Error("a supervisor stopped before Run still holds its tables")
	}
	if err := early.Run(); err != nil || early.Stats().Upstreams[0].Dials != 0 {
		t.Errorf("Run after Stop: %v, %d dials; want nil and none", err, early.Stats().Upstreams[0].Dials)
	}
}

// TestDeliveryLetsGoOfDelta: the supervisor holds a delta no longer than its
// subscribers do. The last subscriber of two drops the slice it was handed
// and, before returning, sees it collected: the delivery loop does not keep
// it reachable until every subscriber has returned.
func TestDeliveryLetsGoOfDelta(t *testing.T) {
	srv := NewServer(testVRPs())
	addr, stop := startServer(t, srv)
	defer stop()
	m := NewMultiSupervisor(Upstream{Name: addr, Dial: func() (net.Conn, error) { return net.Dial("tcp", addr) }})
	var firstCalls atomic.Int32
	m.Subscribe(func(announced, withdrawn []rpki.VRP) { firstCalls.Add(1) })
	collected := make(chan bool, 1)
	m.Subscribe(func(announced, withdrawn []rpki.VRP) {
		if len(announced) == 0 {
			return
		}
		freed := make(chan struct{})
		runtime.SetFinalizer(&announced[0], func(*rpki.VRP) { close(freed) })
		announced = nil
		ok := false
		for i := 0; i < 50 && !ok; i++ {
			runtime.GC()
			select {
			case <-freed:
				ok = true
			case <-time.After(time.Millisecond):
			}
		}
		select {
		case collected <- ok:
		default: // a later delivery; the first one is the test
		}
	})
	done := make(chan error, 1)
	go func() { done <- m.Run() }()
	defer func() {
		m.Stop()
		<-done
	}()
	if !<-collected {
		t.Error("the first sync's delta stayed reachable while its last subscriber ran")
	}
	if firstCalls.Load() != 1 {
		t.Errorf("first subscriber called %d times, want 1", firstCalls.Load())
	}
}

// TestStopLeavesNoGoroutine holds the supervisor's stop path, as
// TestServerCloseLeavesNoGoroutine holds the server's and a Client's:
// after followers with one and two upstreams have gone through a
// cache kill/restart cycle, Stop — plus closing the caches — must return
// the process to its pre-Run goroutine count: no dispatch loop, upstream
// loop, watchdog or compactor outlives it. Run under -race by make race.
func TestStopLeavesNoGoroutine(t *testing.T) {
	for _, upstreams := range []int{1, 2} {
		baseline := runtime.NumGoroutine()
		table := testVRPs()
		var srvs []*Server
		var addrs []string
		for i := 0; i < upstreams; i++ {
			srvs = append(srvs, NewServer(table))
			addrs = append(addrs, serve(t, srvs[i], ""))
		}
		f := startFollower(addrs...)
		waitFor(t, func() bool { return liveTable(f.live).Equal(table) })

		// Kill the preferred cache and restart it as a new process with a
		// changed table; the follower must come back to it.
		srvs[0].Close()
		if upstreams > 1 {
			waitFor(t, func() bool { return f.m.Active() == 1 })
		} else {
			waitFor(t, func() bool { return f.m.Active() == -1 })
		}
		table2 := addVRPs(table, rpki.VRP{Prefix: mp("198.51.100.0/24"), MaxLength: 24, AS: 64504})
		srvs[0] = NewServer(table2)
		srvs[0].SetSession(0x7e57, 1)
		serve(t, srvs[0], addrs[0])
		waitFor(t, func() bool { return f.m.Active() == 0 && liveTable(f.live).Equal(table2) })

		f.stop(t)
		for _, srv := range srvs {
			srv.Close()
		}
		// Goroutines unwind asynchronously after their owners return.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > baseline {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				t.Fatalf("%d upstreams: %d goroutines after Stop, %d before Run\n%s",
					upstreams, runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}
