package main

import (
	"net"
	"sync/atomic"
	"time"

	"repro/internal/rov"
	"repro/internal/rpki"
	"repro/internal/rtr"
)

// cache is a running rtr.Server on a loopback port.
type cache struct {
	srv  *rtr.Server
	addr string
	done chan struct{}
}

func startCache(set *rpki.Set) (*cache, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c := &cache{srv: rtr.NewServer(set), addr: l.Addr().String(), done: make(chan struct{})}
	//repro:owns-goroutine (*rtr.Server).Close
	go func() {
		defer close(c.done)
		_ = c.srv.Serve(l) // always net.ErrClosed after Close
	}()
	return c, nil
}

func (c *cache) close() {
	_ = c.srv.Close() // the listener's close error carries nothing to act on
	<-c.done
}

// router is what both wirings expose to a workload: the validation table a
// router would consult, and a way to stop everything behind it.
type router interface {
	index() *rov.LiveIndex
	stop()
}

// follower is a router wired exactly as cmd/rtrclient -follow wires one:
// a MultiSupervisor with one upstream feeding a LiveIndex through
// Subscribe/OnReset. The end-to-end metrics are measured on this wiring.
type follower struct {
	live *rov.LiveIndex
	ms   *rtr.MultiSupervisor
	done chan error
}

// startFollower launches the follow pipeline against addr. dialing, when
// non-nil, runs at the start of every Dial; applied runs on the delivering
// goroutine right after each delta or reset has been applied to the index.
func startFollower(addr string, dialing func(), applied func(live *rov.LiveIndex, now time.Time)) *follower {
	f := &follower{live: rov.NewLiveIndex(rpki.NewSet(nil)), done: make(chan error, 1)}
	f.ms = rtr.NewMultiSupervisor(rtr.Upstream{Name: addr, Dial: func() (net.Conn, error) {
		if dialing != nil {
			dialing()
		}
		return net.Dial("tcp", addr)
	}})
	f.ms.Subscribe(func(announced, withdrawn []rpki.VRP) {
		f.live.Apply(announced, withdrawn)
		applied(f.live, time.Now())
	})
	f.ms.OnReset(func(table []rpki.VRP) {
		f.live.ResetTo(table)
		applied(f.live, time.Now())
	})
	//repro:owns-goroutine (*rtr.MultiSupervisor).Stop
	go func() { f.done <- f.ms.Run() }()
	return f
}

func (f *follower) index() *rov.LiveIndex { return f.live }

func (f *follower) stop() {
	f.ms.Stop()
	<-f.done
}

// bareRouter drives a bare rtr.Client by hand — WaitNotify → Sync →
// Subscribe callback → LiveIndex.Apply — so a traced run can put a span
// around each hop the supervisor stack fuses together.
type bareRouter struct {
	live   *rov.LiveIndex
	cl     *rtr.Client
	tr     *tracer
	led    *ledger // nil outside roa_change
	done   chan struct{}
	syncs  atomic.Int64
	syncAt atomic.Int64 // nowNs the in-flight Sync started, 0 before the loop
	syncEd atomic.Int64 // nowNs the last Sync returned
}

// startBareRouter dials addr, subscribes a LiveIndex, runs the first full
// sync, and starts the notify→sync loop. applied runs after each delta has
// been applied to the index.
func startBareRouter(addr string, tr *tracer, led *ledger, applied func(live *rov.LiveIndex, now time.Time)) (*bareRouter, error) {
	cl, err := rtr.Dial(addr)
	if err != nil {
		return nil, err
	}
	r := &bareRouter{live: rov.NewLiveIndex(rpki.NewSet(nil)), cl: cl, tr: tr, led: led, done: make(chan struct{})}
	cl.Subscribe(func(announced, withdrawn []rpki.VRP) {
		entry := time.Now()
		serial := int64(cl.Serial())
		// The drainer may run this callback before Sync has returned to the
		// loop below; the hand-off then cost nothing the loop could see.
		if at, ed := r.syncAt.Load(), r.syncEd.Load(); at > 0 {
			from := entry
			if ed >= at && atNs(ed).Before(entry) {
				from = atNs(ed)
			}
			r.tr.add("rtr.subscriber", from, entry, -1, serial)
		}
		r.live.Apply(announced, withdrawn)
		done := time.Now()
		r.tr.add("rov.live.apply", entry, done, -1, serial)
		applied(r.live, done)
	})
	if _, err := cl.Sync(); err != nil {
		_ = cl.Close()
		return nil, err
	}
	cl.FlushSubscribers()
	//repro:owns-goroutine (*bareRouter).stop
	go r.loop()
	return r, nil
}

func (r *bareRouter) loop() {
	defer close(r.done)
	for {
		serial, err := r.cl.WaitNotify()
		if err != nil {
			return // Close ends the loop
		}
		woke := time.Now()
		if r.led != nil {
			if sent, ok := r.led.appliedAt(serial); ok {
				r.tr.add("rtr.notify", sent, woke, -1, int64(serial))
			}
		}
		r.syncAt.Store(int64(woke.Sub(epoch)))
		_, err = r.cl.Sync()
		back := time.Now()
		r.syncEd.Store(int64(back.Sub(epoch)))
		r.syncs.Add(1)
		r.tr.add("rtr.client.sync", woke, back, -1, int64(serial))
		if err != nil {
			return
		}
	}
}

func (r *bareRouter) index() *rov.LiveIndex { return r.live }

func (r *bareRouter) stop() {
	_ = r.cl.Close() // tears the session down; its error is the one we caused
	<-r.done
	<-r.cl.Done()
}

// waitUntil polls cond every millisecond until it holds or limit passes.
// It is only ever used off the clock: to let a table go quiescent before a
// correctness check, or to bound a wait that should not happen.
func waitUntil(limit time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(limit)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}
