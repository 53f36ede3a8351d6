package rtr

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/rov"
	"repro/internal/rpki"
)

// Upstream is one cache in a MultiSupervisor's preference-ordered set.
type Upstream struct {
	// Name labels the upstream in stats and logs (typically its address).
	Name string
	// Dial establishes a connection to this cache; called once per
	// connection attempt. Required.
	Dial func() (net.Conn, error)
}

// MultiSupervisor is the router side's whole lifecycle: the RFC 8210 §11
// cache set and, per cache, the §6 timer state machine and the reconnect
// loop around it. A Client is single-shot by design — when its dispatch loop
// dies the session is over — so each upstream runs one goroutine that dials,
// resumes the previous session by Serial Query, syncs on Serial Notify or the
// Refresh interval, retries a failed sync on the Retry interval for as long
// as the data is inside its Expire window, and otherwise tears the
// connection down and redials with exponential backoff plus jitter. With
// several upstreams, subscribers are served from the most preferred upstream
// that is up — failing over when it dies, failing back when a more-preferred
// one recovers. One upstream's loop, reporting to the owner (⇒):
//
//	          ┌──────────────────────── redial ───────────────────────┐
//	          │  (down ⇒ owner; backoff × 2, jittered, capped at      │
//	          │        Retry, reset by a connection that synced)      │
//	          ▼                                                       │
//	Dial ─(dial ⇒ owner)─► NewClientResume(conn, table, carried       │
//	          ▼                                {session, serial})     │
//	   ┌─► Sync ──ok──► adopt End of Data timers; sync ⇒ owner (the   │
//	   │    │            next Sync waits for its delivery to return)  │
//	   │    │             └─► wait: Notify │ Refresh │ Done │ Stop ─┐ │
//	   │    └─error─► dead client or past Expire? ──yes─────────────┼─┘
//	   │                   └─no─► wait out Retry ─┐                 │
//	   └──────────────────────────────────────────┴─────────────────┘
//
// The owner is Run's goroutine. It alone holds the cache set's state — who
// is up and who serves, the delivered table, the counters, the subscribers,
// each upstream's Expire deadline — and handles one report at a time (a dial
// is counted, a sync goes to onSync, a down to onDown), then publishes what
// Stats, Active and Healthy read. No lock guards any of it. An upstream may
// wait for the owner, and the owner never for an upstream.
//
// What crosses a reconnect is {session, serial, timers, table}: the table is
// the upstream's rov.Table, handed to every client of that upstream by
// pointer and committed into directly, so it is never copied and never
// refetched unless the cache says so (Cache Reset — then the reset is a diff
// against it). Every upstream — serving or not — keeps its table synced, so
// at the moment of a switch both the table subscribers hold and the new
// cache's table exist as immutable snapshots, and the switch reaches
// subscribers as the diff between them (rov.Diff): a delta, never a rebuild,
// no matter which caches the two sides came from — across caches, a full
// dual walk. Steady-state deliveries use the same reconcile path: after one
// sync the delivered snapshot is the table's parent, so the delivery is a
// copy of the delta the table's snapshot carries, across a compaction of the
// session table too; a delivered snapshot further back shares the table's
// arena lineage, and the diff is O(changed), unless the table compacted
// between them, and then it is a full dual walk, as exact. Only when the
// delivered table's Expire window has passed (every upstream was out that
// long) is the next table delivered through OnReset instead: §6 forbids
// diffing against expired data.
//
// Health follows the paper's deployment assumption — a router continuously
// validated against its cache: each upstream measures Expire from its own
// last *successful sync*, across connections, so a cache that flaps every
// few minutes cannot keep stale data looking fresh by resetting the clock at
// each reconnect, and a switch to a standby inherits the standby's clock,
// not a fresh one.
type MultiSupervisor struct {
	// Version is the protocol version for every upstream's clients.
	Version byte
	// OnUpdate, when set, is invoked after every successful sync of the
	// serving upstream with the new serial, on Run's goroutine, once the
	// sync's delivery has returned. It must not block: no upstream's event
	// is handled until it returns.
	OnUpdate func(serial Serial)
	// BackoffMin seeds the redial backoff; each failed connection doubles it
	// up to BackoffMax. A zero BackoffMax caps at the upstream's current
	// Retry interval — the cadence RFC 8210 prescribes for an unreachable
	// cache — and never beyond its Expire window. The backoff resets to
	// BackoffMin after a connection that synced. Set before Run.
	BackoffMin, BackoffMax time.Duration
	// Logf, when set, receives lifecycle diagnostics (redials, expiries,
	// failovers, failbacks).
	Logf func(format string, args ...interface{})

	// subs and rsubs are registered before Run and read only by the owner.
	subs  []func(announced, withdrawn []rpki.VRP)
	rsubs []func(table []rpki.VRP)
	ups   []*upstream
	// events hands the upstreams' reports to the owner, unbuffered; the owner
	// alone touches the fields from here to view.
	events chan event
	active int // rank of the upstream that serves, or -1 when none is up
	// delivered is the table subscribers currently hold and served the rank
	// of the upstream it came from (-1 before the first delivery); reconcile
	// diffs the serving upstream's table against delivered. It starts empty:
	// the first delivery is the whole table as one announce delta. Nil
	// outside Run.
	delivered          *rov.Index
	served             int
	switches, rebuilds int

	// view is the owner's state as of its last event, published for Stats,
	// Active and Healthy on any goroutine, before, during and after Run.
	view   atomic.Pointer[view]
	state  atomic.Int32    // idle, running or stoppedEarly
	ctx    context.Context // cancelled by Stop
	cancel context.CancelFunc
	done   chan struct{} // closed once Run has returned, or by a Stop before Run

	jitterFn func() float64 // every upstream's redial jitter: math/rand's unless a test sets it
}

// MultiSupervisor.state: Run moves it from idle to running, a Stop before
// Run to stoppedEarly, for good.
const (
	idle int32 = iota
	running
	stoppedEarly
)

// view is one published state of the cache set. deadline is when the
// delivered table expires, its upstream's; zero before the first delivery.
type view struct {
	stats    MultiSupervisorStats
	deadline time.Time
}

// event is an upstream's report to the owner. err is Dial's error, or what
// ended the connection. A sync carries its serial, time and Expire deadline,
// whether it is its connection's first, and the counter that first bumps.
type event struct {
	u            *upstream
	kind         uint8 // evDial, evSync, evDown or evExit (the last)
	err          error
	serial       Serial
	at, deadline time.Time
	first        bool
	count        *int // u.stats.SerialResumes or ResetFallbacks, or nil; the owner's to bump
}

const (
	evDial uint8 = iota
	evSync
	evDown
	evExit
)

// Each upstream's timers until its cache advertises its own in a version-1
// End of Data (the RFC 8210 §6 suggested values); adopted values stay in
// force across reconnects.
const (
	defaultRefresh = 3600 * time.Second
	defaultRetry   = 600 * time.Second
	defaultExpire  = 7200 * time.Second
)

// upstream is one cache's slot. Past what construction sets, the upstream's
// goroutine and the owner each own a half and never touch the other's.
type upstream struct {
	Upstream
	m    *MultiSupervisor
	rank int
	// table is the cache's synchronized table: every client of this upstream
	// commits into it, and reconcile diffs its snapshots. Run's: nil outside it.
	table *rov.Table
	ack   chan struct{} // answers each sync once delivered; never blocks the owner

	// The upstream's goroutine's own: session is what the next connection
	// resumes from (nil starts over with a Reset Query); refresh/retry/expire
	// are the §6 timers in force, the configured values until the cache
	// advertises its own; lastSync is the Expire clock, the last successful
	// sync with this cache on any connection (zero before the first).
	session                *SessionState
	refresh, retry, expire time.Duration
	lastSync               time.Time
	delivering             bool // a sync went to the owner; its answer on ack is not taken yet

	// The owner's: the counters, Name and Up, and when the data of the last
	// sync expires (zero before the first).
	stats    UpstreamStats
	deadline time.Time
}

// UpstreamStats is one upstream's view in MultiSupervisorStats.
type UpstreamStats struct {
	// Name is the configured label; Up whether the last lifecycle event was
	// a successful sync; Active whether this upstream currently serves.
	Name   string
	Up     bool
	Active bool
	// Failovers counts the times this upstream lost the serving role because
	// it went down; Failbacks the times service returned to it afterwards
	// (including recovery from a total outage).
	Failovers int
	Failbacks int
	// Dials is the number of connection attempts; DialFailures of them
	// returned an error before a client was even constructed. Generations
	// counts connections that completed at least one sync.
	Dials        int
	DialFailures int
	Generations  int
	// SerialResumes counts connections whose first sync resumed the carried
	// session purely by Serial Query; ResetFallbacks those that carried a
	// session but were forced through a full Reset Query (the cache
	// restarted or evicted the delta chain) — still a delta for
	// subscribers, diffed against the carried table.
	SerialResumes  int
	ResetFallbacks int
	// Rebuilds counts this upstream's tables delivered through OnReset.
	Rebuilds int
}

// MultiSupervisorStats is a coherent snapshot of the whole cache set.
type MultiSupervisorStats struct {
	// Switches counts deliveries that changed the serving upstream;
	// Rebuilds the deliveries made through the reset path because the
	// delivered table had expired.
	Switches  int
	Rebuilds  int
	Upstreams []UpstreamStats
}

// NewMultiSupervisor returns a supervisor over the given caches in
// preference order (most preferred first), with RFC 8210 default timers and
// a one-second initial backoff. The caller registers subscribers, then Run.
func NewMultiSupervisor(upstreams ...Upstream) *MultiSupervisor {
	m := &MultiSupervisor{
		Version:    Version1,
		BackoffMin: time.Second,
		active:     -1,
		served:     -1,
		events:     make(chan event),
		done:       make(chan struct{}),
		jitterFn:   rand.Float64,
	}
	m.ctx, m.cancel = context.WithCancel(context.Background())
	for i, cfg := range upstreams {
		m.ups = append(m.ups, &upstream{Upstream: cfg, m: m, rank: i, ack: make(chan struct{}, 1),
			refresh: defaultRefresh, retry: defaultRetry, expire: defaultExpire, stats: UpstreamStats{Name: cfg.Name}})
	}
	m.publish()
	return m
}

func (m *MultiSupervisor) logf(format string, args ...interface{}) {
	if m.Logf != nil {
		m.Logf(format, args...)
	}
}

// Subscribe registers fn as a delta consumer: sequential delivery, deltas
// exact against the table delivered so far, continuous across redials,
// session changes, Reset fallbacks and cache switches. A consumer that
// derives state from deltas should pair Subscribe with OnReset for the one
// case deltas cannot cover. Consumers must not mutate the slices: every
// consumer is handed the same ones. Register before Run; Subscribe panics
// after it.
func (m *MultiSupervisor) Subscribe(fn func(announced, withdrawn []rpki.VRP)) {
	if m.state.Load() == running {
		panic("rtr: MultiSupervisor.Subscribe after Run")
	}
	m.subs = append(m.subs, fn)
}

// OnReset registers fn to receive the full table whenever the delivered
// state could not be carried — the outage outlasted the Expire window, so
// the new table cannot be expressed as a delta against what subscribers
// hold. Consumers must replace their derived state (rov.LiveIndex.ResetTo);
// the matching delta delivery is suppressed. Delta-only consumers (counters,
// logs) may skip this. Consumers must not mutate the slice: every consumer
// is handed the same one. Register before Run; OnReset panics after it.
func (m *MultiSupervisor) OnReset(fn func(table []rpki.VRP)) {
	if m.state.Load() == running {
		panic("rtr: MultiSupervisor.OnReset after Run")
	}
	m.rsubs = append(m.rsubs, fn)
}

// Active returns the index (preference rank) of the upstream currently
// serving subscribers, or -1 when none is up.
func (m *MultiSupervisor) Active() int {
	return slices.IndexFunc(m.view.Load().stats.Upstreams, func(u UpstreamStats) bool { return u.Active })
}

// Healthy reports whether the delivered table is inside the Expire window
// of the cache it came from, measured — as RFC 8210 §6 does — from the last
// successful sync with that cache: never from a (re)connect, so the window
// keeps shrinking through an outage however often the loop redials, and not
// from a switch, so a failover to a standby that last synced a while ago
// does not restart it. A failed sync alone does not flip Healthy. When
// false, §6 says the router must stop using the data.
func (m *MultiSupervisor) Healthy() bool {
	deadline := m.view.Load().deadline
	return !deadline.IsZero() && time.Now().Before(deadline)
}

// expired reports whether the Expire window has passed with no successful
// sync with this cache, or none has ever succeeded. Only u's goroutine asks.
func (u *upstream) expired(now time.Time) bool {
	return u.lastSync.IsZero() || now.Sub(u.lastSync) >= u.expire
}

// Stats returns a coherent snapshot of the switch counters and every
// upstream's state.
func (m *MultiSupervisor) Stats() MultiSupervisorStats {
	st := m.view.Load().stats
	st.Upstreams = slices.Clone(st.Upstreams)
	return st
}

// publish makes the owner's state what Stats, Active and Healthy read.
func (m *MultiSupervisor) publish() {
	v := &view{stats: MultiSupervisorStats{Switches: m.switches, Rebuilds: m.rebuilds,
		Upstreams: make([]UpstreamStats, len(m.ups))}}
	for i, u := range m.ups {
		v.stats.Upstreams[i] = u.stats
		v.stats.Upstreams[i].Active = i == m.active
	}
	if m.served >= 0 {
		v.deadline = m.ups[m.served].deadline
	}
	m.view.Store(v)
}

// Run starts one goroutine per upstream and owns the cache set until Stop.
// Every upstream keeps its reconnect loop alive for the whole run — a
// non-serving cache keeps its table synced so a failover to it can be
// computed as a diff. An unreachable cache set surfaces as Healthy() ==
// false once the Expire window passes, while Run keeps probing. Returns nil
// when stopped (or stopped before Run), or a misconfiguration error.
func (m *MultiSupervisor) Run() error {
	if len(m.ups) == 0 {
		return errors.New("rtr: MultiSupervisor needs at least one upstream")
	}
	for i, u := range m.ups {
		if u.Dial == nil {
			return fmt.Errorf("rtr: upstream %d (%s) has a nil Dial", i, u.Name)
		}
	}
	if !m.state.CompareAndSwap(idle, running) {
		if m.state.Load() == stoppedEarly {
			return nil
		}
		return errors.New("rtr: MultiSupervisor.Run called twice")
	}
	defer close(m.done)
	m.delivered = rov.NewIndex(rpki.NewSet(nil))
	for _, u := range m.ups {
		u.table = rov.NewTable(nil)
		go u.run()
	}
	for live := len(m.ups); live > 0; {
		e := <-m.events
		switch e.kind {
		case evDial:
			e.u.stats.Dials++
			if e.err != nil {
				e.u.stats.DialFailures++
			}
		case evSync:
			m.onSync(e) // publishes and answers u itself
			continue
		case evDown:
			m.onDown(e.u, e.err)
		case evExit:
			live--
		}
		m.publish()
	}
	// Every upstream has exited: nothing reads the tables any more.
	for _, u := range m.ups {
		u.table = nil
	}
	m.delivered = nil
	return nil
}

// Stop terminates every upstream's loop — each closes its live connection
// to unblock any in-flight exchange — and waits for Run to return. A
// stopped supervisor cannot run again and nothing reads its tables any more,
// so it lets go of them: whoever still holds it — for its Stats, or while
// the follower that replaces it starts from nothing — pins a table per
// upstream no longer (3.65 MB each at today's 33,615 VRPs). Stop must not be
// called from a subscriber: it waits for the delivery it would be inside.
func (m *MultiSupervisor) Stop() {
	if m.state.CompareAndSwap(idle, stoppedEarly) {
		close(m.done) // Run will not start, nor make the tables
	}
	m.cancel()
	<-m.done
}

// sleep waits out d; false means Stop came first.
func (m *MultiSupervisor) sleep(d time.Duration) bool {
	select {
	case <-m.ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}

func (m *MultiSupervisor) backoffMin() time.Duration {
	if m.BackoffMin <= 0 {
		return time.Second
	}
	return m.BackoffMin
}

// backoffCap bounds u's redial backoff: BackoffMax when set, otherwise the
// current Retry interval, and never beyond the Expire window.
func (m *MultiSupervisor) backoffCap(u *upstream) time.Duration {
	limit := m.BackoffMax
	if limit <= 0 {
		limit = u.retry
	}
	if u.expire > 0 {
		limit = min(limit, u.expire)
	}
	return max(limit, m.BackoffMin)
}

// run is the upstream's one goroutine: connect, sync until the connection
// dies, report it down, back off, redial — until Stop. It never gives up on
// its own.
func (u *upstream) run() {
	m := u.m
	defer func() { m.events <- event{u: u, kind: evExit} }()
	backoff := m.backoffMin()
	for {
		synced, err := u.connect()
		if m.ctx.Err() != nil {
			return
		}
		m.events <- event{u: u, kind: evDown, err: err}
		if synced {
			backoff = m.backoffMin()
		}
		// Jittered sleep in [backoff/2, backoff): half deterministic, half
		// random, so a cache restart does not resynchronize its routers
		// into a reconnect stampede.
		half := backoff / 2
		delay := half + time.Duration(m.jitterFn()*float64(backoff-half))
		m.logf("rtr upstream %s: connection lost (%v); redialing in %v", u.Name, err, delay)
		if !m.sleep(delay) {
			return
		}
		if limit := m.backoffCap(u); backoff < limit {
			backoff = min(backoff*2, limit)
		}
	}
}

// connect runs one connection's lifetime: dial, resume the carried session,
// then the RFC 8210 §6 loop — sync; wait for a Serial Notify, the Refresh
// interval, connection death or Stop; sync again — retrying a failed sync on
// the Retry interval while the data is inside its Expire window. It reports
// whether any sync succeeded (which resets the backoff) and the error that
// ended the connection; on return the connection is closed, its dispatch
// goroutine gone, and the session carried for the next one.
//
// The client's dispatch goroutine owns the connection, so idling is a plain
// select: connect never touches the socket or its deadlines, and nothing it
// does can interrupt a read mid-PDU.
func (u *upstream) connect() (synced bool, err error) {
	m := u.m
	if u.session != nil && u.expired(time.Now()) {
		// §6 forbids using the data, and the cache's table may have drifted
		// arbitrarily: forget the session, so the next sync refetches the
		// table instead of resuming a delta stream onto an expired one.
		m.logf("rtr upstream %s: carried session expired (last sync %v ago); next sync refetches the table",
			u.Name, time.Since(u.lastSync))
		u.session = nil
	}
	conn, err := u.Dial()
	m.events <- event{u: u, kind: evDial, err: err}
	if err != nil {
		return false, err
	}
	c := NewClientResume(conn, u.table, u.session)
	c.Version = m.Version
	// Stop closes the connection (at once if it came first), failing any exchange.
	defer context.AfterFunc(m.ctx, func() { c.Close() })()
	defer func() {
		// Close even a connection that is technically alive (a sync can
		// fail on Error Reports that leave the session framed), and wait
		// for its dispatch goroutine: past this point nothing writes the
		// table until the next connection does.
		c.Close()
		<-c.Done()
		if st := c.SessionState(); st != nil {
			u.session = st
		}
	}()
	resumed := u.session != nil
	for {
		if u.delivering {
			// The last delivery returns before the table moves on. Waiting here,
			// not at once, spares a wake-up that would run ahead of its reader.
			<-u.ack
			u.delivering = false
		}
		// A cache that accepts the connection but never answers would wedge
		// the exchange forever — the client has no read deadline by design
		// (deadlines mid-PDU are the desync bug the dispatch loop removed) —
		// so a watchdog at the Retry interval tears the session down instead
		// and the loop redials.
		watchdog := time.AfterFunc(u.retry, func() { c.Close() })
		serial, err := c.Sync()
		watchdog.Stop()
		if err != nil {
			// A dead client can never sync again — the retry cadence then
			// belongs to the redial loop — and expired data has no Retry
			// window left. The sticky error is checked rather than Done: a
			// failed write records it synchronously, while Done closes only
			// once the dispatch goroutine has observed the dead socket.
			if c.Err() != nil || u.expired(time.Now()) {
				return synced, err
			}
			if !m.sleep(u.retry) {
				return synced, nil
			}
			continue
		}
		now := time.Now()
		// Zero means the cache left the field unadvertised, or sent no timers.
		refresh, retry, expire, _ := c.Timers()
		if refresh > 0 {
			u.refresh = refresh
		}
		if retry > 0 {
			u.retry = retry
		}
		if expire > 0 {
			u.expire = expire
		}
		u.lastSync = now
		e := event{u: u, kind: evSync, serial: serial, at: now, deadline: now.Add(u.expire), first: !synced}
		if e.first && resumed {
			e.count = &u.stats.SerialResumes
			if c.FullSyncs() != 0 {
				e.count = &u.stats.ResetFallbacks
			}
		}
		m.events <- e
		synced, u.delivering = true, true
		select {
		case <-m.ctx.Done():
			return synced, nil
		case <-c.Notify():
			// Notify → immediate sync.
		case <-c.Done():
			// The connection died while idle (read error, or the cache
			// killed the session with an idle Error Report): the sync
			// attempt fails fast with the client's sticky error.
		case <-time.After(u.refresh):
			// Refresh expired with no notify: plain periodic sync.
		}
	}
}

// onSync runs on the owner for each successful sync of e.u: mark it up,
// take over from a less-preferred serving upstream (failback) or fill a
// vacant slot, deliver if u serves, and only then advance u's Expire
// deadline — so reconcile still sees how old the delivered table was before
// this sync. Then it publishes, calls OnUpdate if u serves, and answers u.
func (m *MultiSupervisor) onSync(e event) {
	u := e.u
	u.stats.Up = true
	if e.first {
		u.stats.Generations++
	}
	if e.count != nil {
		*e.count++
	}
	if prev := m.active; prev == -1 || u.rank < prev {
		if m.served != -1 {
			// Service returns to u: either u outranks the serving upstream
			// and has recovered, or u ends a total outage.
			u.stats.Failbacks++
			m.switches++
		}
		m.active = u.rank
		if prev != -1 {
			m.logf("rtr multisupervisor: failing back to preferred upstream %s (from %s)", u.Name, m.ups[prev].Name)
		} else {
			m.logf("rtr multisupervisor: serving from upstream %s", u.Name)
		}
	}
	serving := m.active == u.rank
	if serving {
		m.reconcile(u, e.at)
	}
	u.deadline = e.deadline
	m.publish()
	if serving && m.OnUpdate != nil {
		m.OnUpdate(e.serial)
	}
	u.ack <- struct{}{}
}

// onDown runs on the owner each time one of u's connections ends or a dial
// fails: mark it down and, if it was serving, fail over to the most
// preferred upstream that still is up.
func (m *MultiSupervisor) onDown(u *upstream, err error) {
	u.stats.Up = false
	if m.active != u.rank {
		return
	}
	u.stats.Failovers++
	m.active = -1
	for _, cand := range m.ups {
		if cand.stats.Up {
			m.active = cand.rank
			m.switches++
			break
		}
	}
	if m.active == -1 {
		m.logf("rtr multisupervisor: upstream %s down (%v); no healthy upstream left", u.Name, err)
		return
	}
	next := m.ups[m.active]
	m.logf("rtr multisupervisor: upstream %s down (%v); failing over to %s", u.Name, err, next.Name)
	m.reconcile(next, time.Now())
}

// reconcile is the single delivery primitive: diff the table subscribers
// hold against serving upstream u's table and deliver the result. Every path
// that can change what subscribers should see funnels through here —
// steady-state syncs, failovers, failbacks, recoveries — and only the owner
// calls it, one event at a time, so no interleaving of upstream events can
// deliver anything but the exact difference.
func (m *MultiSupervisor) reconcile(u *upstream, now time.Time) {
	cur := u.table.Snapshot()
	// Stale means the delivered table's own Expire window has passed — every
	// upstream was out that long: §6 forbids pretending it is a valid diff
	// base, so this delivery replaces subscriber state instead.
	if m.served >= 0 && !now.Before(m.ups[m.served].deadline) {
		table := cur.AppendVRPs(nil)
		m.logf("rtr multisupervisor: delivered table expired; resetting %d subscribers to %s's %d-VRP table",
			len(m.rsubs), u.Name, len(table))
		for _, fn := range m.rsubs {
			fn(table)
		}
		m.rebuilds++
		u.stats.Rebuilds++
	} else if announced, withdrawn := rov.Diff(m.delivered, cur); len(m.subs) > 0 && (len(announced) > 0 || len(withdrawn) > 0) {
		// The last subscriber is called after the loop, so nothing here holds
		// the delta while it runs: a LiveIndex taking a first sync frees it
		// once its bit trie is built. On a cold start the delta is the session's
		// staging slice, which rov.Diff hands over from the table ResetTo built
		// (1.08 MB at today's 33,615 VRPs, in a backing array up to 2.3 times
		// that), so nothing else holds it either.
		last := len(m.subs) - 1
		for _, fn := range m.subs[:last] {
			fn(announced, withdrawn)
		}
		m.subs[last](announced, withdrawn)
	}
	m.delivered, m.served = cur, u.rank
}
