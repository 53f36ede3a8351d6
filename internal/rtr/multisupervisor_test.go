package rtr

import (
	"errors"
	"fmt"
	"net"
	"reflect"
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
// MultiSupervisor feeding a LiveIndex through Subscribe/OnReset, with
// millisecond backoff. resets counts OnReset deliveries, updates OnUpdate
// calls.
type follower struct {
	m               *MultiSupervisor
	live            *rov.LiveIndex
	resets, updates atomic.Int32
	runErr          chan error
}

// startFollower follows the caches listening on addrs over TCP.
func startFollower(addrs ...string) *follower {
	var ups []Upstream
	for _, addr := range addrs {
		ups = append(ups, Upstream{Name: addr, Dial: func() (net.Conn, error) { return net.Dial("tcp", addr) }})
	}
	return follow(ups...)
}

func follow(ups ...Upstream) *follower {
	f := &follower{live: rov.NewLiveIndex(rpki.NewSet(nil)), runErr: make(chan error, 1)}
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
	waitBounded(t, "stopping the follower", func() error {
		f.m.Stop()
		if err := <-f.runErr; err != nil {
			return fmt.Errorf("Run returned %v after Stop", err)
		}
		return nil
	})
}

// serve starts srv on a fresh loopback port (or, when addr is non-empty,
// rebinds that exact address) and returns where it listens.
func serve(t *testing.T, srv *Server, addr string) string {
	t.Helper()
	needStartFloor(t)
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

// TestStopReleasesTables: a stopped supervisor somebody still holds — for its
// Stats, or while the follower replacing it starts from nothing — pins no
// table: each upstream's and the delivered one are let go once Run has
// returned, the accessors keep answering, and a Stop before Run does the same.
func TestStopReleasesTables(t *testing.T) {
	table := testVRPs()
	var addrs []string
	for i := 0; i < 2; i++ {
		srv := NewServer(table)
		defer waitBounded(t, "closing a cache", func() error { srv.Close(); return nil })
		addrs = append(addrs, serve(t, srv, ""))
	}
	f := startFollower(addrs...)
	waitFor(t, func() bool {
		st := f.m.Stats().Upstreams
		return liveTable(f.live).Equal(table) && st[0].Up && st[1].Up
	})
	// The tables are the owner's. The view just loaded was published after
	// its last write to either, and no sync is due for an hour, so reading
	// them here races with nothing.
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

// TestRegisterAfterRunPanics: once Run has begun the subscribers are the
// owner's, so registering another is a panic, not a data race; and a second
// Run is an error.
func TestRegisterAfterRunPanics(t *testing.T) {
	m := NewMultiSupervisor(Upstream{Name: "refused", Dial: func() (net.Conn, error) { return nil, errors.New("refused") }})
	done := make(chan error, 1)
	go func() { done <- m.Run() }()
	defer waitBounded(t, "stopping the supervisor", func() error { m.Stop(); <-done; return nil })
	waitFor(t, func() bool { return m.Stats().Upstreams[0].Dials > 0 })
	for name, register := range map[string]func(){
		"Subscribe": func() { m.Subscribe(func(_, _ []rpki.VRP) {}) },
		"OnReset":   func() { m.OnReset(func([]rpki.VRP) {}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s after Run did not panic", name)
				}
			}()
			register()
		}()
	}
	if err := m.Run(); err == nil {
		t.Error("a second Run returned nil")
	}
}

// TestDeliveryLetsGoOfDelta: the supervisor holds a delta no longer than its
// subscribers do. The last subscriber of two drops the slice it was handed
// and, before returning, sees it collected: the delivery loop does not keep
// it reachable until every subscriber has returned.
func TestDeliveryLetsGoOfDelta(t *testing.T) {
	srv := NewServer(testVRPs())
	addr, stop := startServer(t, srv)
	defer waitBounded(t, "stopping the cache", func() error { stop(); return nil })
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
	defer waitBounded(t, "stopping the supervisor", func() error { m.Stop(); <-done; return nil })
	var ok bool
	waitBounded(t, "the first delivery", func() error { ok = <-collected; return nil })
	if !ok {
		t.Error("the first sync's delta stayed reachable while its last subscriber ran")
	}
	if firstCalls.Load() != 1 {
		t.Errorf("first subscriber called %d times, want 1", firstCalls.Load())
	}

	// A LiveIndex follower, wired as startFollower wires one, keeps neither
	// slice it is handed: not the first sync's delta (the session's staging
	// slice, which rov.Diff handed over) once Apply has built from it, nor the
	// table an expired delivery resets it to through OnReset. Each is watched
	// from inside its delivery and must be collected once that delivery has
	// returned. The cache's 1 s Expire window runs out while it is down; it
	// comes back, and the next delivery goes through OnReset.
	live := rov.NewLiveIndex(rpki.NewSet(nil))
	srv2 := NewServer(testVRPs())
	srv2.Expire = 1
	addr2 := serve(t, srv2, "")
	m2 := NewMultiSupervisor(Upstream{Name: addr2, Dial: func() (net.Conn, error) { return net.Dial("tcp", addr2) }})
	m2.BackoffMin, m2.BackoffMax = 2*time.Millisecond, 20*time.Millisecond
	type watched struct {
		what  string
		freed chan struct{} // closed by the slice's finalizer
	}
	delivered := make(chan watched, 1) // each delivery returns before the next sync
	watch := func(what string, vrps []rpki.VRP) {
		w := watched{what, make(chan struct{})}
		runtime.SetFinalizer(&vrps[0], func(*rpki.VRP) { close(w.freed) })
		delivered <- w
	}
	m2.Subscribe(func(announced, withdrawn []rpki.VRP) {
		live.Apply(announced, withdrawn)
		if live.Len() == len(announced) { // the first sync
			watch("the first sync's delta", announced)
		}
	})
	m2.OnReset(func(table []rpki.VRP) {
		live.ResetTo(table)
		watch("the expired delivery's table", table)
	})
	updated := make(chan struct{}, 16) // far more than the two syncs made: the owner never blocks
	m2.OnUpdate = func(Serial) { updated <- struct{}{} }
	runErr := make(chan error, 1)
	go func() { runErr <- m2.Run() }()
	defer waitBounded(t, "stopping the follower", func() error { m2.Stop(); <-runErr; return nil })
	collectedAfterDelivery := func() {
		t.Helper()
		var w watched
		waitBounded(t, "a delivery and its OnUpdate", func() error {
			w = <-delivered
			<-updated // OnUpdate runs once the delivery has returned
			return nil
		})
		if !finalized(w.freed) {
			t.Errorf("%s stayed reachable after its delivery returned: the LiveIndex keeps it", w.what)
		}
	}
	collectedAfterDelivery()
	waitBounded(t, "closing the first cache", func() error { srv2.Close(); return nil })
	waitFor(t, func() bool { return !m2.Healthy() })
	srv3 := NewServer(testVRPs())
	defer waitBounded(t, "closing the restarted cache", func() error { srv3.Close(); return nil })
	serve(t, srv3, addr2)
	collectedAfterDelivery()
	if !liveTable(live).Equal(testVRPs()) {
		t.Errorf("the follower holds %d VRPs after the reset, want %d", live.Len(), testVRPs().Len())
	}
}

// finalized collects garbage until freed, which a finalizer closes, is
// closed, and reports whether it was within 50 rounds.
func finalized(freed <-chan struct{}) bool {
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-freed:
			return true
		case <-time.After(time.Millisecond):
		}
	}
	return false
}

// handoff returns the list a table snapshot keeps for a Diff from empty, or
// nil. rov keeps it unexported; TestPlainClientReleasesKeptList reads it by
// reflection, as lineage does, because what it pins is that list's lifetime.
func handoff(ix *rov.Index) *[]rpki.VRP {
	return (*[]rpki.VRP)(reflect.ValueOf(ix).Elem().FieldByName("handoff").FieldByName("v").UnsafePointer())
}

// TestPlainClientReleasesKeptList: a Client nobody diffs — no subscriber, no
// supervisor — keeps its full sync's staging slice on its table's snapshot,
// for a Diff from an empty table that never comes (rov.Table.ResetTo). The
// next delta replaces that snapshot, and the slice goes with it.
func TestPlainClientReleasesKeptList(t *testing.T) {
	srv := NewServer(testVRPs())
	addr, stop := startServer(t, srv)
	defer waitBounded(t, "stopping the cache", func() error { stop(); return nil })
	c := dialBounded(t, addr)
	defer c.Close()
	waitBounded(t, "the full sync", c.Reset)
	freed := make(chan struct{})
	func() {
		kept := handoff(c.table.Snapshot())
		if kept == nil || len(*kept) != testVRPs().Len() {
			t.Fatal("the full sync's snapshot keeps no list of the table's size")
		}
		runtime.SetFinalizer(&(*kept)[0], func(*rpki.VRP) { close(freed) })
	}()
	runtime.GC()
	runtime.GC()
	select {
	case <-freed:
		t.Fatal("the kept list was collected while the snapshot holding it is current")
	case <-time.After(10 * time.Millisecond):
	}
	waitBounded(t, "the next delta's publish", func() error {
		srv.ApplyDelta([]rpki.VRP{{Prefix: mp("198.51.100.0/24"), MaxLength: 24, AS: 64511}}, nil)
		return nil
	})
	syncBounded(t, c, "the next delta's sync")
	if !finalized(freed) {
		t.Error("the kept list stayed reachable after the next delta replaced its snapshot")
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
		waitBounded(t, "killing the preferred cache", func() error { srvs[0].Close(); return nil })
		if upstreams > 1 {
			waitFor(t, func() bool { return f.m.Active() == 1 })
		} else {
			waitFor(t, func() bool { return f.m.Active() == -1 })
		}
		table2 := addVRPs(table, rpki.VRP{Prefix: mp("198.51.100.0/24"), MaxLength: 24, AS: 64504})
		srvs[0] = NewServer(table2)
		waitBounded(t, "the restarted cache's SetSession", func() error { srvs[0].SetSession(0x7e57, 1); return nil })
		serve(t, srvs[0], addrs[0])
		waitFor(t, func() bool { return f.m.Active() == 0 && liveTable(f.live).Equal(table2) })

		f.stop(t)
		waitBounded(t, "closing the caches", func() error {
			for _, srv := range srvs {
				srv.Close()
			}
			return nil
		})
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
