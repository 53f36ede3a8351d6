package rtr

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/rov"
	"repro/internal/rpki"
)

// Client is the router side of the protocol: it synchronizes a local copy of
// the cache's VRP set — the table a router consults for origin validation.
// The table is a rov.Table the client is handed at construction (NewClient
// creates an empty one) and commits every End of Data straight into: the
// write side only — snapshots, deltas, diffs — because nothing validates
// against a session table; a consumer that does subscribes a rov.LiveIndex.
// The table outlives the connection that filled it.
//
// A single dispatch goroutine, started by NewClient, owns ReadPDU for the
// connection's lifetime, and with it the read buffer the socket is drained
// through: one read(2) brings in whatever the cache has sent, up to
// readBufSize, and PDUs are decoded out of the buffer — a well-formed Prefix
// PDU where it lies (readBuffered), the rest by ReadPDU. It reads whole PDUs
// and routes each one: Serial Notify PDUs go to the coalescing channel
// returned by Notify, everything else belongs to the at-most-one in-flight
// Sync/Reset exchange. No other goroutine ever reads from the connection or
// the buffer, so no reader can be interrupted mid-PDU and the stream can
// never lose framing — the failure mode RFC 8210 §8 cannot recover from
// short of tearing the session down. When a read fails, or a PDU arrives that
// the protocol state cannot accept, the loop records a sticky error, closes
// the connection, fails any in-flight exchange, and closes Done; every later
// call fails fast with that error and the caller must reconnect with a fresh
// Client.
//
// No lock guards a Client. Each piece of state has one owner:
//   - the session — ID, serial, timers, full-sync count — is the dispatch
//     goroutine's: it alone writes it, and publishes it whole after each End
//     of Data, before it resolves the exchange, so Serial and the rest read
//     the synced value as soon as Sync returns;
//   - the exchange slot is held by one Sync, Reset, FlushSubscribers or
//     Subscribe call at a time, and the subscriber list belongs to its
//     holder; a Sync or Reset hands its request to the dispatch goroutine
//     and keeps the slot until its subscribers have returned;
//   - the sticky error is set once, by whichever goroutine sees the
//     connection fail first, and before the failure is reported to anyone.
type Client struct {
	// Version is the protocol version to speak (Version1 by default). Set it
	// before the first exchange.
	Version byte

	conn net.Conn
	// table is the session table. Only the dispatch goroutine writes it
	// (commit); everyone else reads snapshots.
	table *rov.Table

	// slot is the exchange slot: a send takes it, a receive gives it back.
	// The protocol allows at most one outstanding query per connection, so
	// concurrent callers simply queue.
	slot chan struct{}
	subs []func(announced, withdrawn []rpki.VRP) // the slot's, in registration order
	reqs chan *request                           // the slot holder's request, to dispatch

	// state is the last completed sync, or the session NewClientResume
	// carried in; nil before either.
	state atomic.Pointer[session]
	err   atomic.Pointer[error]

	notifyCh chan Serial
	done     chan struct{}
}

// session is a Client's state after a completed sync, published whole and
// never changed after.
type session struct {
	SessionState
	// refresh/retry/expire hold the timers from the most recent version-1
	// End of Data PDU (seconds); haveTimers reports whether one was seen.
	refresh, retry, expire uint32
	haveTimers             bool
	// fullSyncs counts committed full (Reset Query) exchanges; a resumed
	// client that syncs with it still zero resumed purely by Serial Query.
	fullSyncs int
}

// request is one Sync/Reset exchange routed through the dispatch loop. The
// requesting goroutine creates it, hands it over on reqs, writes the query,
// and waits for result or Done; the dispatch loop owns the parsing state and
// sends on result at most once.
type request struct {
	full   bool
	diff   bool       // the requester has subscribers: commit takes their delta
	result chan error // buffered: resolving never blocks the dispatch loop

	// Exchange state below is owned by the dispatch goroutine.
	started bool // Cache Response received
	// discard marks an incremental exchange whose Cache Response carried a
	// different session than the local state (the cache restarted but did
	// not answer Cache Reset): the update cannot be applied onto the local
	// table, so the rest of it is consumed — keeping the stream framed —
	// and the exchange resolves as a cache reset at End of Data.
	discard bool
	session uint16
	// announced/withdrawn stage the response's prefix PDUs in arrival order;
	// commit hands them to the table, which gives them set semantics.
	announced, withdrawn []rpki.VRP
	// added/removed are what commit changed in the table — the subscribers'
	// delta, delivered by the requesting goroutine once result has resolved.
	added, removed []rpki.VRP
}

// SessionState identifies the last completed sync of a session: what a
// reconnect needs, next to the session table, to continue the cache's delta
// stream on a fresh connection instead of refetching the table. A
// MultiSupervisor upstream captures it from a dead client
// (Client.SessionState) and hands it to the replacement (NewClientResume),
// whose first Sync then issues a Serial Query for Serial against SessionID —
// the RFC 8210 resumption handshake.
type SessionState struct {
	SessionID uint16
	Serial    Serial
}

// Dial connects to a cache at addr ("host:port").
func Dial(addr string) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(nc), nil
}

// NewClient wraps an established connection (useful with net.Pipe in tests)
// with a fresh, empty session table, and starts the dispatch goroutine that
// owns all reads from it.
func NewClient(nc net.Conn) *Client {
	return NewClientResume(nc, rov.NewTable(nil), nil)
}

// NewClientResume wraps an established connection like NewClient, but
// commits into table — typically the session table of a previous connection
// to the same cache, carried by pointer, never copied — and, when st is
// non-nil, resumes that session: the first Sync issues a Serial Query
// instead of a Reset Query. When the cache cannot serve the incremental
// stream — it restarted with a new session ID, or evicted the delta chain —
// Sync falls back to a full reset, whose subscriber delta is the diff
// against the carried table, so delta-fed consumers resync without a
// rebuild. A nil st is a fresh start on whatever table holds.
func NewClientResume(nc net.Conn, table *rov.Table, st *SessionState) *Client {
	c := &Client{
		Version:  Version1,
		conn:     nc,
		table:    table,
		slot:     make(chan struct{}, 1),
		reqs:     make(chan *request, 1),
		notifyCh: make(chan Serial, 1),
		done:     make(chan struct{}),
	}
	if st != nil {
		c.state.Store(&session{SessionState: *st})
	}
	go c.dispatch()
	return c
}

// SessionState returns the session and serial of the last completed sync for
// handoff to a replacement client (NewClientResume), or nil when no sync has
// completed — nothing to resume. It remains available after the dispatch
// loop dies, as does the table.
func (c *Client) SessionState() *SessionState {
	st := c.state.Load()
	if st == nil {
		return nil
	}
	ss := st.SessionState
	return &ss
}

// Close closes the connection; the dispatch loop observes the closed socket,
// fails any in-flight exchange, and closes Done.
func (c *Client) Close() error { return c.conn.Close() }

// Notify returns the channel on which the dispatch loop delivers Serial
// Notify PDUs. It has capacity 1 and coalesces: when notifies arrive faster
// than the consumer drains them, a pending serial is replaced by the newer
// one (the cache's serials are cumulative, so only the latest matters). The
// channel is never closed — select on Done to observe connection death.
func (c *Client) Notify() <-chan Serial { return c.notifyCh }

// Done returns a channel that is closed when the dispatch loop has exited —
// after a read error, an idle-state protocol violation, or Close. Err
// reports why.
func (c *Client) Done() <-chan struct{} { return c.done }

// Err returns the sticky error that failed the session, or nil while it is
// alive. It is set before any call reports that error: a Sync or Reset that
// fails the session — its write failed, or the connection died under it —
// returns with Err already non-nil, though Done may not yet be closed.
func (c *Client) Err() error {
	if p := c.err.Load(); p != nil {
		return *p
	}
	return nil
}

// Subscribe registers fn as a delta consumer: after every completed update
// with a non-empty delta it receives exactly the VRPs the update added and
// removed, in canonical prefix order: announces already present, withdrawals
// of absent VRPs and a VRP both announced and withdrawn by one update are
// excluded, and on a full reset the delta is relative to the table being
// replaced (the diff of the table's snapshots before and after the commit).
// This is how a second index follows the table in O(delta) instead of
// rebuilding from Set after every sync.
//
// Delivery runs on the goroutine that called Sync or Reset, after the
// update has committed and before the call returns, consumers in
// registration order. That caller holds the exchange slot throughout, so
// deliveries never overlap and arrive in commit order, and nothing is
// queued: a slow consumer slows the caller that is syncing, never the
// dispatch loop — PDUs keep being read and Serial Notifies keep reaching
// Notify while it runs. Consumers may read Client state (Serial, Timers and
// the table already show the update they are handed) but must not call
// Subscribe, Sync, Reset or FlushSubscribers: each waits for the slot, which
// the exchange they are running inside holds. Consumers must not mutate the
// slices: every consumer is handed the same ones.
//
// Subscribe itself takes the slot, so it waits out an exchange in flight;
// a consumer registered after updates have been applied sees only
// subsequent deltas. Register before the first sync to observe the full
// table history.
func (c *Client) Subscribe(fn func(announced, withdrawn []rpki.VRP)) {
	c.slot <- struct{}{}
	c.subs = append(c.subs, fn)
	<-c.slot
}

// FlushSubscribers blocks until any Sync or Reset in flight on another
// goroutine has delivered to every subscriber and returned. A caller that
// syncs on its own goroutine needs no flush: Sync returns after delivery.
func (c *Client) FlushSubscribers() {
	// Taking the slot is the wait: an exchange delivers while holding it.
	c.slot <- struct{}{}
	<-c.slot
}

// Timers returns the Refresh/Retry/Expire intervals advertised by the cache
// in the most recent version-1 End of Data PDU. ok is false when none has
// been seen (no completed sync yet, or the cache speaks version 0, whose End
// of Data carries no timers).
func (c *Client) Timers() (refresh, retry, expire time.Duration, ok bool) {
	st := c.session()
	if !st.haveTimers {
		return 0, 0, 0, false
	}
	return time.Duration(st.refresh) * time.Second,
		time.Duration(st.retry) * time.Second,
		time.Duration(st.expire) * time.Second, true
}

// session returns the published session, the zero one before any.
func (c *Client) session() *session {
	if st := c.state.Load(); st != nil {
		return st
	}
	return &session{}
}

// Serial returns the serial of the last completed sync.
func (c *Client) Serial() Serial { return c.session().Serial }

// SessionID returns the cache session from the last completed sync.
func (c *Client) SessionID() uint16 { return c.session().SessionID }

// FullSyncs returns how many full (Reset Query) exchanges have committed.
// Zero on a resumed client means every sync so far was incremental — the
// cache accepted the carried session outright.
func (c *Client) FullSyncs() int { return c.session().fullSyncs }

// Set returns the synchronized VRPs as a normalized set.
func (c *Client) Set() *rpki.Set {
	return rpki.NewSet(c.table.Snapshot().AppendVRPs(nil))
}

// Len returns the number of synchronized VRPs.
func (c *Client) Len() int { return c.table.Len() }

// Reset performs a full synchronization (Reset Query → Cache Response →
// prefix PDUs → End of Data). Concurrent Reset/Sync callers are serialized.
func (c *Client) Reset() error {
	c.slot <- struct{}{}
	defer func() { <-c.slot }()
	return c.exchange(true, &ResetQuery{})
}

// Sync brings the client up to date: an incremental Serial Query when state
// exists, falling back to a full Reset on Cache Reset. It returns the serial
// synchronized to. Concurrent Sync/Reset callers are serialized.
func (c *Client) Sync() (Serial, error) {
	c.slot <- struct{}{}
	defer func() { <-c.slot }()
	st := c.state.Load()
	full := st == nil
	for {
		var q PDU = &ResetQuery{}
		if !full {
			q = &SerialQuery{SessionID: st.SessionID, Serial: st.Serial}
		}
		err := c.exchange(full, q)
		if err == nil {
			return c.Serial(), nil
		}
		// Cache Reset answers only a Serial Query: go round once more, in full.
		if full || !errors.As(err, new(cacheResetError)) {
			return 0, err
		}
		full = true
	}
}

// WaitNotify blocks until a Serial Notify arrives and returns its serial, or
// returns the sticky error when the connection dies first. Because the
// notify channel coalesces, N cache updates wake WaitNotify at least once,
// not necessarily N times; the returned serial is the newest one pending.
func (c *Client) WaitNotify() (Serial, error) {
	select {
	case s := <-c.notifyCh:
		return s, nil
	case <-c.done:
		// A notify that arrived just before the loop died is still news.
		select {
		case s := <-c.notifyCh:
			return s, nil
		default:
		}
		return 0, c.Err()
	}
}

// cacheResetError signals that the cache cannot serve the incremental query.
type cacheResetError struct{}

func (cacheResetError) Error() string { return "rtr: cache reset" }

// exchange runs one query/response exchange against the dispatch loop:
// hand over the request, write the query, wait for the loop to resolve it,
// and hand the committed delta to the subscribers. The caller must hold the
// slot.
func (c *Client) exchange(full bool, q PDU) error {
	if err := c.Err(); err != nil {
		return err
	}
	req := &request{full: full, diff: len(c.subs) > 0, result: make(chan error, 1)}
	// Hand over before writing: the response must never beat the request
	// and be mistaken for idle traffic. reqs is empty: the last request was
	// resolved, or the loop died and Err returned above.
	c.reqs <- req
	if err := WritePDU(c.conn, c.Version, q); err != nil {
		// The write side is broken; kill the session so the read side does
		// not block forever waiting for a response that was never requested.
		c.fail(nil, err)
	}
	var err error
	select {
	case err = <-req.result:
	case <-c.done:
		// The loop died, having resolved req or never having taken it; the
		// sticky error was recorded before Done closed.
		select {
		case err = <-req.result:
		default:
			err = c.Err()
		}
	}
	if err != nil {
		return err
	}
	if len(req.added) > 0 || len(req.removed) > 0 {
		for _, fn := range c.subs {
			fn(req.added, req.removed)
		}
	}
	return nil
}

// readBufSize is the dispatch goroutine's read buffer: a full-table response
// crosses in one read(2) per 4 KiB — the chunk the cache's writer flushes —
// instead of two per PDU (168 reads for today's 33,615-PDU table, not
// 67,000), and a Serial Notify or a small delta response in one. 16 and
// 64 KiB buffers measured no faster (BenchmarkClientReset, cold_sync): past
// the point where reads stop being per-PDU the syscalls no longer show, and a
// population of sessions pays the buffer once each.
const readBufSize = 4 << 10

// dispatch is the single reader: it owns the connection's read side — the
// socket and the buffer in front of it — for the connection's lifetime,
// routing Serial Notifies to the notify channel and everything else to the
// in-flight exchange, which it takes off reqs at the exchange's first PDU
// and holds until it resolves it. The buffer changes how many bytes a
// read(2) returns, not who reads or when a PDU is complete: a call still
// consumes exactly one PDU, blocking mid-PDU only for bytes the cache has yet
// to send, and Close/fail still unblock it by closing the socket. Prefix
// PDUs — the bulk of a table-sized response — are decoded in the buffer into
// one reused Prefix; the two or three other PDUs of an exchange, and anything
// malformed, take ReadPDU, whose errors are the protocol's (readBuffered). It
// exits — closing Done — on the first read error or protocol violation.
func (c *Client) dispatch() {
	defer close(c.done)
	br := bufio.NewReaderSize(c.conn, readBufSize)
	var pp Prefix    // every Prefix PDU decoded in place: advance copies the VRP out
	var req *request // the exchange in flight, nil while idle
	for {
		pdu, version, err := readBuffered(br, &pp)
		if err != nil {
			c.fail(req, err)
			return
		}
		if n, ok := pdu.(*SerialNotify); ok {
			c.pushNotify(n.Serial)
			continue
		}
		if req == nil {
			select {
			case req = <-c.reqs:
			default:
				// Traffic while idle. An Error Report here is the cache
				// killing the session (RFC 8210 §8): surface it as the sticky
				// error and close. Anything else is a protocol violation with
				// the same consequence — there is no way to rejoin the cache's
				// state machine from an unsolicited PDU.
				c.fail(nil, c.idleError(pdu))
				return
			}
		}
		finished, exchErr, fatal := c.advance(req, pdu, version)
		if fatal != nil {
			c.fail(req, fatal)
			return
		}
		if finished {
			req.result <- exchErr
			req = nil
		}
	}
}

// readBuffered is dispatch's ReadPDU. A full response is Prefix PDUs but for
// two, and ReadPDU pays each a scratch array and a Prefix: 67,000 allocations
// a sync of today's table. One that is well framed — version 0 or 1, length
// exactly 20 or 32, its body a valid VRP — is decoded where it lies in br's
// buffer, into pp (valid until the next call), and discarded. Any other PDU,
// and a Prefix PDU with anything wrong with it, is ReadPDU's with nothing
// consumed — Peek waits for the bytes ReadPDU would wait for, and on its error
// the stream fails in ReadPDU as it always has — so every error, every
// ProtocolError.Code and the framing, exactly one PDU a call, are ReadPDU's.
func readBuffered(br *bufio.Reader, pp *Prefix) (PDU, byte, error) {
	if hdr, err := br.Peek(headerLen); err == nil && (hdr[0] == Version0 || hdr[0] == Version1) &&
		(hdr[1] == TypeIPv4Prefix || hdr[1] == TypeIPv6Prefix) {
		fam, n := prefixBody(hdr[1])
		if n += headerLen; binary.BigEndian.Uint32(hdr[4:]) == uint32(n) {
			if b, err := br.Peek(n); err == nil && pp.parseBody(b[headerLen:], fam) == nil {
				version := b[0]
				_, _ = br.Discard(n) // cannot fail: Peek has shown the bytes buffered
				return pp, version, nil
			}
		}
	}
	return ReadPDU(br)
}

// idleError classifies a non-notify PDU received outside any exchange.
func (c *Client) idleError(pdu PDU) error {
	if er, ok := pdu.(*ErrorReport); ok {
		return er
	}
	return fmt.Errorf("rtr: unexpected PDU type %d while idle", pdu.Type())
}

// advance feeds one PDU into the in-flight exchange's state machine. It
// reports whether the exchange finished and with what outcome; fatal errors
// kill the whole session (the response can no longer be correlated with the
// local state), while an exchange error (Cache Reset, Error Report) resolves
// the request but leaves the — still perfectly framed — session usable.
func (c *Client) advance(req *request, pdu PDU, version byte) (finished bool, exchErr, fatal error) {
	if !req.started {
		// Awaiting Cache Response.
		switch p := pdu.(type) {
		case *CacheResponse:
			req.started = true
			req.session = p.SessionID
			if !req.full {
				// An incremental update is only meaningful against the
				// session it continues (RFC 8210 §5.5: a session change
				// invalidates all held data). A restarted cache should
				// answer Cache Reset, but one that replies with its new
				// session and a delta must not have that delta applied onto
				// the carried table — consume the update to stay framed and
				// resolve as a cache reset so Sync falls back to a full
				// Reset Query. The requester built its Serial Query from the
				// published session, so there is one, and only this goroutine
				// publishes.
				req.discard = p.SessionID != c.state.Load().SessionID
			}
			return false, nil, nil
		case *CacheReset:
			return true, cacheResetError{}, nil
		case *ErrorReport:
			return true, p, nil
		default:
			return false, nil, fmt.Errorf("rtr: expected Cache Response, got type %d", pdu.Type())
		}
	}
	switch p := pdu.(type) {
	case *Prefix:
		// p is dispatch's one Prefix, overwritten by the next PDU: the VRP is
		// copied out here and nothing may keep the pointer.
		if p.Flags&FlagAnnounce != 0 {
			req.announced = stage(req.announced, p.VRP)
		} else {
			req.withdrawn = stage(req.withdrawn, p.VRP)
		}
		return false, nil, nil
	case *RouterKey:
		// Accepted and ignored: BGPsec is out of scope here.
		return false, nil, nil
	case *EndOfData:
		if p.SessionID != req.session {
			return false, nil, fmt.Errorf("rtr: End of Data session %d != Cache Response session %d", p.SessionID, req.session)
		}
		if req.discard {
			return true, cacheResetError{}, nil
		}
		c.commit(req, p, version)
		return true, nil, nil
	case *ErrorReport:
		return true, p, nil
	default:
		return false, nil, fmt.Errorf("rtr: unexpected PDU type %d in update", pdu.Type())
	}
}

// stage appends v to a staging slice, doubling it when full past 256 VRPs,
// where append grows it by a quarter: today's 33,615-VRP response regrows 7
// times past 256 instead of 15 and copies 1.9 MB instead of 3.8, into a
// slice 2.3 times the response that End of Data frees. Each regrowth while a
// response streams in is a large allocation, a point where the collector may
// begin a cycle; with fewer of them cold_sync's cycle begins at the commit,
// every iteration (BENCH_PR25/README.md, "cold_sync peak_rss_mb"). Below 256
// append doubles anyway, and a small delta allocates what it did.
func stage(s []rpki.VRP, v rpki.VRP) []rpki.VRP {
	if len(s) == cap(s) && len(s) >= 256 {
		s = slices.Grow(s, len(s))
	}
	return append(s, v)
}

// commit applies a completed update on the dispatch goroutine: it commits
// the staged prefixes into the table, publishes the new session — serial,
// adopted version-1 timers (table first, so no reader ever sees a serial
// ahead of its table; before the exchange resolves, so none sees one behind
// it once Sync has returned) — drops a now-stale pending notify, and leaves
// the applied delta on the request for the requesting goroutine to deliver —
// the dispatch goroutine never runs a consumer.
//
// Within one update withdrawals win over announcements of the same VRP and
// repeats count once — the table has set semantics. An incremental update
// path-copies into the table in O(delta); a full one builds the new index
// in one pass and swaps it in. Either way the subscribers' delta is rov.Diff
// of the table's snapshots before and after, which is exact by construction
// and, for an incremental update, a copy of the net delta the new snapshot
// carries. With no subscriber no diff is taken. A full update hands its
// staging slice to ResetTo, which keeps it, in the cache's stream order, for
// the first diff of the new snapshot from an empty table: this one, or a
// MultiSupervisor's first delivery, gets the slice instead of a walk.
func (c *Client) commit(req *request, eod *EndOfData, version byte) {
	var before *rov.Index
	if req.diff {
		before = c.table.Snapshot()
	}
	if req.full {
		next := req.announced
		if len(req.withdrawn) > 0 {
			gone := make(map[rpki.VRP]struct{}, len(req.withdrawn))
			for _, v := range req.withdrawn {
				gone[v] = struct{}{}
			}
			next = slices.DeleteFunc(next, func(v rpki.VRP) bool { _, ok := gone[v]; return ok })
		}
		c.table.ResetTo(next)
	} else {
		c.table.Apply(req.announced, req.withdrawn)
	}
	next := *c.session()
	next.SessionState = SessionState{SessionID: req.session, Serial: eod.Serial}
	if req.full {
		next.fullSyncs++
	}
	if version == Version1 {
		next.refresh, next.retry, next.expire = eod.Refresh, eod.Retry, eod.Expire
		next.haveTimers = true
	}
	c.state.Store(&next)
	c.dropStaleNotify(eod.Serial)
	if before != nil {
		req.added, req.removed = rov.Diff(before, c.table.Snapshot())
	}
}

// pushNotify delivers a Serial Notify to the coalescing channel: if one is
// already pending, the newer serial displaces it. Only the dispatch
// goroutine sends on notifyCh, so after draining the pending value the send
// cannot race another producer.
func (c *Client) pushNotify(serial Serial) {
	for {
		select {
		case c.notifyCh <- serial:
			return
		default:
		}
		select {
		case <-c.notifyCh:
		default:
		}
	}
}

// dropStaleNotify clears a pending notify at or behind the serial just
// synchronized: it is no longer news. One that is genuinely newer (RFC 1982
// comparison — serials wrap) is put back. Runs on the dispatch goroutine.
func (c *Client) dropStaleNotify(serial Serial) {
	select {
	case s := <-c.notifyCh:
		if SerialNewer(s, serial) {
			c.pushNotify(s)
		}
	default:
	}
}

// fail records the sticky error (first one wins) and closes the connection.
// The dispatch goroutine passes the exchange it holds, if any, and fail
// resolves it with the sticky error; a requester, whose write failed, passes
// nil and learns the outcome from its request or Done.
func (c *Client) fail(req *request, err error) {
	c.err.CompareAndSwap(nil, &err)
	c.conn.Close()
	if req != nil {
		req.result <- c.Err()
	}
}
