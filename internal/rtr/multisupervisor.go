package rtr

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"sync"
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
// connection down and redials with exponential backoff plus jitter. With one
// upstream that loop is the whole supervisor; with several, subscribers are
// served from the most preferred upstream that is up — failing over when it
// dies, failing back when a more-preferred one recovers. One upstream's loop:
//
//	          ┌──────────────────────── redial ───────────────────────┐
//	          │   (onDown → failover; backoff × 2, jittered, capped   │
//	          │        at Retry, reset by a connection that synced)   │
//	          ▼                                                       │
//	Dial ──► NewClientResume(conn, table, carried {session, serial})  │
//	          ▼                                                       │
//	   ┌─► Sync ──ok──► onSync (failback? reconcile; then advance     │
//	   │    │            the Expire clock, adopt End of Data timers)  │
//	   │    │             └─► wait: Notify │ Refresh │ Done │ Stop ─┐ │
//	   │    └─error─► dead client or past Expire? ──yes─────────────┼─┘
//	   │                   └─no─► wait out Retry ─┐                 │
//	   └──────────────────────────────────────────┴─────────────────┘
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
	// serving upstream with the new serial, on that upstream's goroutine.
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

	// deliverMu serializes upstream events: onSync and onDown hold it for
	// their whole decide-diff-deliver-record sequence, so syncs and switches
	// on different upstream goroutines cannot interleave their deltas.
	// Always acquired before mu, never while holding it.
	deliverMu sync.Mutex
	mu        sync.Mutex
	subs      []func(announced, withdrawn []rpki.VRP)
	rsubs     []func(table []rpki.VRP)
	ups       []*upstream
	active    int // rank of the upstream that serves, or -1 when none is up
	// delivered is the table subscribers currently hold and served the rank
	// of the upstream it came from (-1 before the first delivery); reconcile
	// diffs the serving upstream's table against delivered. It starts empty:
	// the first delivery is the whole table as one announce delta. Nil after
	// Stop.
	delivered *rov.Index
	served    int
	switches  int
	rebuilds  int
	running   bool
	stopped   bool
	stopCh    chan struct{} // closed by Stop
	doneCh    chan struct{} // closed when Run's upstream goroutines have exited

	// jitterFn is every upstream's redial jitter source, overridable by
	// tests; nil means math/rand.
	jitterFn func() float64
}

// Each upstream's timers until its cache advertises its own in a version-1
// End of Data (the RFC 8210 §6 suggested values); adopted values stay in
// force across reconnects.
const (
	defaultRefresh = 3600 * time.Second
	defaultRetry   = 600 * time.Second
	defaultExpire  = 7200 * time.Second
)

// upstream is one cache's slot: its configuration, its session table, and —
// guarded by the MultiSupervisor's mu — its timers, Expire clock, health and
// counters. The timers and the clock are written only by the upstream's own
// goroutine (onSync), which therefore reads them bare; other goroutines take
// mu.
type upstream struct {
	Upstream
	m    *MultiSupervisor
	rank int
	// table is the cache's synchronized table: every client of this upstream
	// commits into it, and reconcile diffs its snapshots. Nil after Stop.
	table *rov.Table
	// session is what the next connection resumes from; nil starts over
	// with a Reset Query. Touched only by the upstream's goroutine.
	session *SessionState

	client *Client // the live connection, nil between connections
	up     bool    // the last lifecycle event was a successful sync
	// refresh/retry/expire are the §6 timers in force: the configured
	// values until the cache advertises its own.
	refresh, retry, expire time.Duration
	// lastSync/synced are the Expire clock: the last successful sync with
	// this cache on any connection, and whether there has been one.
	lastSync time.Time
	synced   bool
	stats    UpstreamStats // the counters; Name/Up/Active are filled by Stats
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
		delivered:  rov.NewIndex(rpki.NewSet(nil)),
		stopCh:     make(chan struct{}),
		doneCh:     make(chan struct{}),
	}
	for i, cfg := range upstreams {
		m.ups = append(m.ups, &upstream{Upstream: cfg, m: m, rank: i, table: rov.NewTable(nil),
			refresh: defaultRefresh, retry: defaultRetry, expire: defaultExpire})
	}
	return m
}

func (m *MultiSupervisor) jitter() float64 {
	if m.jitterFn != nil {
		return m.jitterFn()
	}
	return rand.Float64()
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
// case deltas cannot cover. Register before Run.
func (m *MultiSupervisor) Subscribe(fn func(announced, withdrawn []rpki.VRP)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.subs = append(m.subs, fn)
}

// OnReset registers fn to receive the full table whenever the delivered
// state could not be carried — the outage outlasted the Expire window, so
// the new table cannot be expressed as a delta against what subscribers
// hold. Consumers must replace their derived state
// (rov.LiveIndex.ResetTo); the matching delta delivery is suppressed.
// Delta-only consumers (counters, logs) may skip this. Register before Run.
func (m *MultiSupervisor) OnReset(fn func(table []rpki.VRP)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rsubs = append(m.rsubs, fn)
}

// Active returns the index (preference rank) of the upstream currently
// serving subscribers, or -1 when none is up.
func (m *MultiSupervisor) Active() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.active
}

// Healthy reports whether the delivered table is inside the Expire window
// of the cache it came from, measured — as RFC 8210 §6 does — from the last
// successful sync with that cache: never from a (re)connect, so the window
// keeps shrinking through an outage however often the loop redials, and not
// from a switch, so a failover to a standby that last synced a while ago
// does not restart it. A failed sync alone does not flip Healthy. When
// false, §6 says the router must stop using the data.
func (m *MultiSupervisor) Healthy() bool {
	now := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.served >= 0 && !m.ups[m.served].expired(now)
}

// expired reports whether the Expire window has passed with no successful
// sync with this cache, or none has ever succeeded. Callers other than the
// upstream's own goroutine hold mu.
func (u *upstream) expired(now time.Time) bool {
	return !u.synced || now.Sub(u.lastSync) >= u.expire
}

// Stats returns a coherent snapshot of the switch counters and every
// upstream's state.
func (m *MultiSupervisor) Stats() MultiSupervisorStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := MultiSupervisorStats{Switches: m.switches, Rebuilds: m.rebuilds}
	for i, u := range m.ups {
		us := u.stats
		us.Name, us.Up, us.Active = u.Name, u.up, i == m.active
		out.Upstreams = append(out.Upstreams, us)
	}
	return out
}

// Run starts one goroutine per upstream and blocks until Stop. Every
// upstream keeps its own reconnect loop alive for the whole run — a
// non-serving cache keeps its table synced in the background so a failover
// to it can be computed as a diff. An unreachable cache set surfaces as
// Healthy() == false once the Expire window passes, while Run keeps
// probing. Returns nil when stopped, or a misconfiguration error.
func (m *MultiSupervisor) Run() error {
	if ok, err := m.begin(); !ok {
		return err
	}
	var wg sync.WaitGroup
	for _, u := range m.ups {
		wg.Add(1)
		go func() {
			defer wg.Done()
			u.run()
		}()
	}
	wg.Wait()
	close(m.doneCh)
	return nil
}

// begin validates the configuration. False
// without an error means Stop came before Run.
func (m *MultiSupervisor) begin() (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.ups) == 0 {
		return false, errors.New("rtr: MultiSupervisor needs at least one upstream")
	}
	if m.running {
		return false, errors.New("rtr: MultiSupervisor.Run called twice")
	}
	for i, u := range m.ups {
		if u.Dial == nil {
			return false, fmt.Errorf("rtr: upstream %d (%s) has a nil Dial", i, u.Name)
		}
	}
	m.running = !m.stopped
	return m.running, nil
}

// Stop terminates every upstream's loop — closing the live connections to
// unblock any in-flight exchange — and waits for Run to return. A stopped
// supervisor cannot run again and nothing reads its tables any more, so it
// lets go of them: whoever still holds it — for its Stats, or while the
// follower that replaces it starts from nothing — pins a table per upstream
// no longer (3.65 MB each at today's 33,615 VRPs).
func (m *MultiSupervisor) Stop() {
	m.mu.Lock()
	if !m.stopped {
		m.stopped = true
		close(m.stopCh)
	}
	running := m.running
	var live []*Client
	for _, u := range m.ups {
		if u.client != nil {
			live = append(live, u.client)
		}
	}
	m.mu.Unlock()
	for _, c := range live {
		c.Close()
	}
	if running {
		<-m.doneCh
	}
	// Every upstream goroutine has exited, or — stopped before Run — none
	// will start: connect and reconcile were the tables' only readers.
	m.mu.Lock()
	for _, u := range m.ups {
		u.table = nil
	}
	m.delivered = nil
	m.mu.Unlock()
}

func (m *MultiSupervisor) isStopped() bool {
	select {
	case <-m.stopCh:
		return true
	default:
		return false
	}
}

// sleep waits out d; false means Stop came first.
func (m *MultiSupervisor) sleep(d time.Duration) bool {
	select {
	case <-m.stopCh:
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
	backoff := m.backoffMin()
	for {
		synced, err := u.connect()
		if m.isStopped() {
			return
		}
		m.onDown(u, err)
		if synced {
			backoff = m.backoffMin()
		}
		// Jittered sleep in [backoff/2, backoff): half deterministic, half
		// random, so a cache restart does not resynchronize its routers
		// into a reconnect stampede.
		half := backoff / 2
		delay := half + time.Duration(m.jitter()*float64(backoff-half))
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
	m.mu.Lock()
	u.stats.Dials++
	if err != nil {
		u.stats.DialFailures++
		m.mu.Unlock()
		return false, err
	}
	c := NewClientResume(conn, u.table, u.session)
	c.Version = m.Version
	u.client = c
	stopped := m.stopped
	m.mu.Unlock()
	defer func() {
		// Close even a connection that is technically alive (a sync can
		// fail on Error Reports that leave the session framed), and wait
		// for its dispatch goroutine: past this point nothing writes the
		// table until the next connection does.
		c.Close()
		<-c.Done()
		m.mu.Lock()
		u.client = nil
		m.mu.Unlock()
		if st := c.SessionState(); st != nil {
			u.session = st
		}
	}()
	if stopped {
		return false, nil // Stop raced the dial and may have missed u.client
	}
	resumed := u.session != nil
	for {
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
		if !synced {
			synced = true
			m.mu.Lock()
			u.stats.Generations++
			switch {
			case !resumed:
			case c.FullSyncs() == 0:
				u.stats.SerialResumes++
			default:
				u.stats.ResetFallbacks++
			}
			m.mu.Unlock()
		}
		m.onSync(u, c, serial)
		select {
		case <-m.stopCh:
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

// onSync runs on u's goroutine after each of its successful syncs: mark it
// up, take over from a less-preferred serving upstream (failback) or fill a
// vacant slot, deliver if u serves, and only then advance u's Expire clock
// and adopt the timers its cache advertised — so reconcile still sees how
// old the delivered table was before this sync.
func (m *MultiSupervisor) onSync(u *upstream, c *Client, serial Serial) {
	m.deliverMu.Lock()
	now := time.Now()
	m.mu.Lock()
	u.up = true
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
	m.mu.Unlock()
	if serving {
		m.reconcile(u, now)
	}
	refresh, retry, expire, advertised := c.Timers()
	m.mu.Lock()
	u.lastSync, u.synced = now, true
	if advertised {
		// Zero means the cache left the field unadvertised.
		if refresh > 0 {
			u.refresh = refresh
		}
		if retry > 0 {
			u.retry = retry
		}
		if expire > 0 {
			u.expire = expire
		}
	}
	m.mu.Unlock()
	m.deliverMu.Unlock()
	if serving && m.OnUpdate != nil {
		m.OnUpdate(serial)
	}
}

// onDown runs on u's goroutine each time one of its connections ends or a
// dial fails: mark it down and, if it was serving, fail over to the most
// preferred upstream that still is up.
func (m *MultiSupervisor) onDown(u *upstream, err error) {
	m.deliverMu.Lock()
	defer m.deliverMu.Unlock()
	m.mu.Lock()
	u.up = false
	if m.active != u.rank {
		m.mu.Unlock()
		return
	}
	u.stats.Failovers++
	m.active = -1
	var next *upstream
	for _, cand := range m.ups {
		if cand.up {
			next = cand
			m.active = cand.rank
			m.switches++
			break
		}
	}
	m.mu.Unlock()
	if next == nil {
		m.logf("rtr multisupervisor: upstream %s down (%v); no healthy upstream left", u.Name, err)
		return
	}
	m.logf("rtr multisupervisor: upstream %s down (%v); failing over to %s", u.Name, err, next.Name)
	m.reconcile(next, time.Now())
}

// reconcile is the single delivery primitive: diff the table subscribers
// hold against serving upstream u's table and deliver the result. Every path
// that can change what subscribers should see funnels through here —
// steady-state syncs, failovers, failbacks, recoveries — and deliverMu,
// which the caller holds, admits one at a time, so no interleaving of
// upstream events can deliver anything but the exact difference.
func (m *MultiSupervisor) reconcile(u *upstream, now time.Time) {
	m.mu.Lock()
	delivered := m.delivered
	subs, rsubs := slices.Clone(m.subs), slices.Clone(m.rsubs)
	// Stale means the delivered table's own Expire window has passed — every
	// upstream was out that long: §6 forbids pretending it is a valid diff
	// base, so this delivery replaces subscriber state instead.
	stale := m.served >= 0 && m.ups[m.served].expired(now)
	m.mu.Unlock()

	cur := u.table.Snapshot()
	if stale {
		table := cur.AppendVRPs(nil)
		m.logf("rtr multisupervisor: delivered table expired; resetting %d subscribers to %s's %d-VRP table",
			len(rsubs), u.Name, len(table))
		for _, fn := range rsubs {
			fn(table)
		}
	} else if announced, withdrawn := rov.Diff(delivered, cur); len(subs) > 0 && (len(announced) > 0 || len(withdrawn) > 0) {
		// The last subscriber is called after the loop, so nothing here holds
		// the delta while it runs: one that builds from it and lets go — a
		// LiveIndex taking a first sync, 1.08 MB at today's 33,615 VRPs —
		// frees it once its bit trie is built, before the compact build that
		// then runs behind it.
		last := len(subs) - 1
		for _, fn := range subs[:last] {
			fn(announced, withdrawn)
		}
		subs[last](announced, withdrawn)
	}

	m.mu.Lock()
	m.delivered, m.served = cur, u.rank
	if stale {
		m.rebuilds++
		u.stats.Rebuilds++
	}
	m.mu.Unlock()
}
