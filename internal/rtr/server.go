package rtr

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rov"
	"repro/internal/rpki"
)

// Server is the cache side of the protocol: the "trusted local cache" of
// Figure 1. It serves the current VRP set to any number of router clients,
// assigns serial numbers to updates, answers Serial Queries with incremental
// deltas when it can, and pushes Serial Notify PDUs when the data changes.
//
// The server is built for router-population scale (ROADMAP item 2): every
// piece of state a response needs lives in one immutable published value
// swapped atomically on each update, so the read paths — full responses,
// serial-query answers, notifies — never take a server-wide lock. Each
// connection has two goroutines, one per direction: the handler reads
// queries and the writer owns every write, fed by the connection's bounded
// outbound queue and its notify mailbox. The writer encodes every PDU —
// responses, Serial Notify, Cache Reset, the terminal Error Report — into
// the connection's buffer and sends each item with one flush. Publishing is
// queue handoff, never socket I/O, so a stalled router cannot slow an update
// down, and because no writer is shared, it cannot slow another router's
// answer down either (a pool of four writers made a healthy router wait
// 3.9 s behind eight wedged ones; TestSlowRouterIsolation holds a round under
// half a WriteTimeout). The price is one goroutine woken per router per
// publish. A router that stops draining its TCP side either overflows its
// queue or exceeds the write deadline, and is disconnected; a healthy RFC
// 8210 router simply redials and resumes with a Serial Query.
//
// The cache stores no delta chains: each update's table goes into a short
// ring of immutable rov snapshots, and the answer to a Serial Query is
// synthesized at write time as rov.Diff between the router's retained
// snapshot and the current one — exact between any two retained serials and
// free of serial arithmetic (the ring is searched by serial equality). For a
// router one serial behind, every healthy one, that is a copy of the delta
// the current snapshot carries from its parent, compaction or not. Further
// back it is O(changed) in the snapshots' divergence while both share an
// arena lineage; once the table has compacted between them, the rebuild
// having started a new lineage, it is a full dual walk (≈ 4 ms at 33,615
// VRPs), paid by each router more than one serial behind across the
// compaction.
type Server struct {
	// Timers advertised in version-1 End of Data PDUs (seconds). Zero values
	// are replaced by the RFC 8210 suggested defaults.
	Refresh, Retry, Expire uint32
	// Logf, when set, receives diagnostic messages.
	Logf func(format string, args ...interface{})
	// WriteTimeout bounds each queued write (one PDU, or one streamed
	// response). A router whose TCP receive window stays closed past it is
	// disconnected instead of holding its writer and its queue forever.
	// Default 30s. Set before Serve.
	WriteTimeout time.Duration

	// keepDeltas bounds how many past serials remain answerable by
	// incremental updates (older Serial Queries get Cache Reset): 16; only
	// this package's tests set another value.
	keepDeltas int
	// pub is the published state: session, serial, and the snapshot ring,
	// one immutable value shared by every session and swapped atomically by
	// publishers. Readers Load it once and answer from that coherent view.
	pub atomic.Pointer[published]
	// writeMu serializes publishers (UpdateSet, ApplyDelta, SetSession);
	// readers never take it.
	writeMu sync.Mutex
	// live applies each delta as a persistent-snapshot update that carries
	// the delta from its parent, and its snapshots between two compactions
	// share an arena lineage: the serial-to-serial diff is a copy or a
	// structural walk, not a full table walk. Write side only: the cache
	// serves snapshots and diffs and validates nothing.
	live *rov.Table
	// served is the set the table was last replaced with — NewServer's or
	// UpdateSet's argument, shared with the caller — against which the next
	// UpdateSet takes its delta; nil once ApplyDelta has moved the table away
	// from it: 32 B a VRP, nothing extra when the caller keeps the set anyway.
	// Guarded by writeMu.
	served *rpki.Set

	// regMu guards the session registry, the listener, and closed. It is held
	// to add, remove, or copy out the membership, never across a mailbox offer
	// or a socket call. closed flips under it during Close, so a connection
	// racing the shutdown sweep can never register unnoticed.
	regMu    sync.Mutex
	conns    map[*conn]struct{}
	listener net.Listener
	closed   bool
	// writerWG counts the per-connection writer goroutines; Close waits on it.
	writerWG sync.WaitGroup
}

// queryBufSize is each connection's read buffer: room for a Serial Query and
// a Reset Query back to back, no more (see handle).
const queryBufSize = 32

// queueDepth bounds each connection's outbound response queue. A router that
// queues more unanswered queries than this — it is sending queries without
// reading responses — is disconnected. Serial Notifies do not count against
// the bound: the notify mailbox coalesces to the newest serial and can never
// overflow.
const queueDepth = 32

// published is the immutable publish state. Publishers build a fresh value
// (including a fresh snaps slice) and swap the pointer; a stored value is
// never mutated again, so lock-free readers see a coherent session, serial,
// and ring.
type published struct {
	session uint16
	serial  Serial
	snaps   []serialSnapshot // oldest first; last is the current serial's table
}

// current returns the table at the published serial.
func (p *published) current() *rov.Index { return p.snaps[len(p.snaps)-1].table }

// lookup returns the retained table at serial, or nil when it has been
// evicted from the ring (no serial arithmetic: the ring is searched by
// equality, and its length is the retention policy).
func (p *published) lookup(serial Serial) *rov.Index {
	for _, sn := range p.snaps {
		if sn.serial == serial {
			return sn.table
		}
	}
	return nil
}

// serialSnapshot pairs a serial number with the immutable table the cache
// served at that serial.
type serialSnapshot struct {
	serial Serial
	table  *rov.Index
}

// connState is a connection's lifecycle: active (readable, writable),
// closing (a terminal Error Report is queued; the writer closes the socket
// once the queue drains), dead (torn down, deregistered).
type connState uint8

const (
	connActive connState = iota
	connClosing
	connDead
)

// outKind tags a queued outbound response descriptor.
type outKind uint8

const (
	outFull   outKind = iota // Reset Query answer: full-table response
	outSerial                // Serial Query answer: delta, empty update, or Cache Reset
	outError                 // terminal Error Report (conn moves to connClosing)
	outNotify                // Serial Notify from the mailbox, never queued
)

// outItem is one response for the writer, queued or, for a notify, taken from
// the mailbox. Queues hold descriptors, not materialized PDUs: the writer
// renders the response from the published state at write time, so a deep
// queue costs bytes per entry, not a table copy, and a delayed answer
// reflects the freshest data.
type outItem struct {
	kind    outKind
	version byte
	query   SerialQuery // outSerial
	errCode uint16      // outError
	errText string
	serial  Serial // outNotify
}

type conn struct {
	c net.Conn
	// bw is the connection's one write path and reused encode buffer: every
	// PDU is appended into its spare capacity (put, writePrefix) and each
	// item ends in one flush, so no PDU costs an allocation and a full-table
	// answer never materializes len(vrps)+2 PDU values.
	bw *bufio.Writer
	// wake carries one token from offerNotify/enqueue/disconnect to the
	// parked writer. The token is sent after the mailbox, queue or state
	// update and dropped when one is already pending, which is safe: the
	// writer re-checks all three under mu after consuming a token, so a
	// pending token covers any update made before it is consumed.
	wake chan struct{}

	mu      sync.Mutex
	version byte // fixed by the most recent PDU received from the router
	state   connState
	// The coalescing notify mailbox: newest serial wins (RFC 1982 compare),
	// so pending notifies occupy one slot no matter how fast the cache
	// publishes.
	notifySerial Serial
	hasNotify    bool
	queue        []outItem
}

// NewServer creates a cache serving the given initial VRP set, which the
// server keeps and the caller must not modify afterwards.
//
// The table is built once, from a copy of the set's VRPs in prefix order — the
// bit trie's pre-order; the set, AS-major, is not touched: slabs sized once,
// laid out in the order every full response, compaction and diff walks them,
// as a cache's are after its first compaction. The walk under each full
// response is 2.0 ms at today's 33,615 VRPs, not 2.5. The order is a radix
// sort on the prefix alone (byPrefix): 3.1–3.5 ms of set-up at today's table
// and 12 ms at the 182,501 VRPs of a quarter-scale full deployment on 2
// vCPUs, where a comparison sort takes 7.6–8.3 and 46–52 ms.
func NewServer(initial *rpki.Set) *Server {
	if initial == nil {
		initial = rpki.NewSet(nil)
	}
	ordered := byPrefix(initial.VRPs())
	s := &Server{
		Refresh:      3600,
		Retry:        600,
		Expire:       7200,
		keepDeltas:   16,
		WriteTimeout: 30 * time.Second,
		live:         rov.NewTable(ordered),
		served:       initial,
		conns:        make(map[*conn]struct{}),
	}
	p := &published{session: 0x5eed, serial: 1}
	p.snaps = []serialSnapshot{{serial: p.serial, table: s.live.Snapshot()}}
	s.pub.Store(p)
	return s
}

// prefixDigits is the number of 16-bit digits in a prefix's radix key.
const prefixDigits = 10

// prefixDigit returns the d-th 16-bit digit of v's prefix key, least
// significant first: length, the address's low then high half, family. Keys
// compared from the last digit down order VRPs as prefix.Compare.
func prefixDigit(v *rpki.VRP, d int) uint16 {
	hi, lo := v.Prefix.Bits()
	switch {
	case d == 0:
		return uint16(v.Prefix.Len())
	case d < 5:
		return uint16(lo >> (16 * (d - 1)))
	case d < 9:
		return uint16(hi >> (16 * (d - 5)))
	}
	return uint16(v.Prefix.Family())
}

// byPrefix returns a copy of vrps, a Set's canonical list, in prefix order.
// It is a stable LSD radix sort on the 16-bit digits of the prefix key, as
// bgp.NewTable sorts routes: one pass counts every digit, a digit that every
// VRP shares costs no pass, and the others move the VRPs between two slabs.
// The key holds no AS and no maxLength, so no tie is broken by comparison:
// the VRPs of one prefix arrive from the canonical list in (AS, maxLength)
// order and a stable sort keeps them so, which is the order of a comparison
// on (prefix, AS, maxLength).
func byPrefix(vrps []rpki.VRP) []rpki.VRP {
	rs := slices.Clone(vrps)
	if len(rs) < 2 {
		return rs
	}
	buf := make([]rpki.VRP, len(rs))
	counts := new([prefixDigits][1 << 16]uint32)
	for i := range rs {
		for d := range prefixDigits {
			counts[d][prefixDigit(&rs[i], d)]++
		}
	}
	for d := range prefixDigits {
		c := &counts[d]
		if int(c[prefixDigit(&rs[0], d)]) == len(rs) {
			continue // every VRP has this digit
		}
		var sum uint32
		for k, n := range c {
			c[k] = sum
			sum += n
		}
		for i := range rs {
			k := prefixDigit(&rs[i], d)
			buf[c[k]] = rs[i]
			c[k]++
		}
		rs, buf = buf, rs
	}
	return rs
}

// Serial returns the current serial number (lock-free).
func (s *Server) Serial() Serial { return s.pub.Load().serial }

// SessionID returns the cache session identifier (lock-free).
func (s *Server) SessionID() uint16 { return s.pub.Load().session }

// SetSession overrides the session ID and serial the cache serves from,
// before any router connects. A cache restarted from a state snapshot keeps
// its previous session so routers resume their incremental stream with a
// Serial Query; a cache restarted fresh picks a new session ID, which (per
// RFC 8210 §5.5) forces routers through Cache Reset and a full resync.
func (s *Server) SetSession(id uint16, serial Serial) {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	// Prior serials belong to the old numbering; only the current table is
	// answerable incrementally from here.
	s.pub.Store(&published{
		session: id,
		serial:  serial,
		snaps:   []serialSnapshot{{serial: serial, table: s.live.Snapshot()}},
	})
}

// UpdateSet replaces the served VRP set with next — which the server keeps,
// and the caller must not modify afterwards — publishes the new table under
// the next serial, and notifies connected routers. A next equal to the
// served table publishes nothing: no serial, no notify.
//
// The announce/withdraw delta is one merge of the set served so far against
// next (rpki.Set.Diff), both in canonical order, and the table takes it as
// ApplyDelta would, so the whole ring stays on one arena lineage. After an
// ApplyDelta the set served so far is first read back from the table.
//
// UpdateSet never performs socket I/O: notifying N routers is N coalescing
// mailbox offers, so publish latency is independent of the slowest router.
func (s *Server) UpdateSet(next *rpki.Set) {
	s.writeMu.Lock()
	prev := s.served
	if prev == nil {
		prev = rpki.NewSet(s.pub.Load().current().AppendVRPs(nil))
	}
	s.served = next
	ann, wd := prev.Diff(next)
	if len(ann)+len(wd) == 0 {
		s.writeMu.Unlock()
		return
	}
	serial := s.publishLocked(ann, wd)
	s.writeMu.Unlock()
	s.broadcastNotify(serial)
}

// ApplyDelta publishes an announce/withdraw delta directly — the O(delta)
// publish path for callers that track changes instead of whole sets (a
// delta-fed pipeline, the rtrload churn driver). Announces of VRPs already
// present and withdrawals of absent VRPs are no-ops; responses stay exact
// because every answer is synthesized by diffing retained snapshots. It
// returns the serial the delta was published under.
func (s *Server) ApplyDelta(announced, withdrawn []rpki.VRP) Serial {
	s.writeMu.Lock()
	s.served = nil
	serial := s.publishLocked(announced, withdrawn)
	s.writeMu.Unlock()
	s.broadcastNotify(serial)
	return serial
}

// publishLocked applies a delta to the live table and swaps in the next
// published value: serial bumped, new snapshot appended, ring trimmed to
// keepDeltas+2 (the current serial plus the keepDeltas+1 serials behind it
// that stay answerable). The snaps slice is freshly allocated per publish —
// the ring is small — so the previous published value stays immutable under
// concurrent readers. Caller holds writeMu.
func (s *Server) publishLocked(announced, withdrawn []rpki.VRP) Serial {
	old := s.pub.Load()
	s.live.Apply(announced, withdrawn)
	serial := SerialAdvance(old.serial, 1)
	start := 0
	if drop := len(old.snaps) + 1 - (s.keepDeltas + 2); drop > 0 {
		start = drop
	}
	snaps := make([]serialSnapshot, 0, len(old.snaps)-start+1)
	snaps = append(snaps, old.snaps[start:]...)
	snaps = append(snaps, serialSnapshot{serial: serial, table: s.live.Snapshot()})
	s.pub.Store(&published{session: old.session, serial: serial, snaps: snaps})
	return serial
}

// broadcastNotify offers the new serial to every connection's notify
// mailbox. The registry lock is held only to copy the membership, mailbox
// offers take only the target's own lock, and waking a writer is a
// non-blocking send — no socket is touched on this path.
func (s *Server) broadcastNotify(serial Serial) {
	s.regMu.Lock()
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.regMu.Unlock()
	for _, c := range conns {
		s.offerNotify(c, serial)
	}
}

// offerNotify coalesces serial into c's notify mailbox and wakes its writer.
// Newest serial wins by RFC 1982 comparison; the mailbox is one slot, so
// notify pressure can never overflow a router's queue.
func (s *Server) offerNotify(c *conn, serial Serial) {
	c.mu.Lock()
	if c.state != connActive {
		c.mu.Unlock()
		return
	}
	if !c.hasNotify || SerialNewer(serial, c.notifySerial) {
		c.notifySerial = serial
	}
	c.hasNotify = true
	c.mu.Unlock()
	c.wakeWriter()
}

// enqueue appends a response descriptor to c's bounded outbound queue and
// wakes its writer, disconnecting the conn on overflow. closeAfter marks the
// item terminal: no further enqueues are accepted and the writer closes the
// socket once the queue drains. Returns false when the conn is no longer
// accepting work.
func (s *Server) enqueue(c *conn, item outItem, closeAfter bool) bool {
	c.mu.Lock()
	if c.state != connActive {
		c.mu.Unlock()
		return false
	}
	if len(c.queue) >= queueDepth {
		c.mu.Unlock()
		s.logf("rtr server: %v: outbound queue overflow (%d pending); disconnecting", c.c.RemoteAddr(), queueDepth)
		s.disconnect(c)
		return false
	}
	c.queue = append(c.queue, item)
	if closeAfter {
		c.state = connClosing
	}
	c.mu.Unlock()
	c.wakeWriter()
	return true
}

// wakeWriter leaves a token for the conn's writer. Non-blocking: see the
// field comment on wake for why a dropped token can never strand output.
func (c *conn) wakeWriter() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// drain is the conn's writer goroutine, the only one that ever writes to the
// socket, so PDU framing is never interleaved. It writes pending output —
// the notify mailbox first (it supersedes nothing — a notify may legally
// interleave anywhere in the stream — and clearing it first keeps "new
// data" latency independent of queued responses), then queued response
// descriptors in FIFO order — and parks on wake when there is none. It exits
// when the conn dies: by disconnect from any goroutine, on its own write
// error, or after the terminal Error Report of a closing conn has drained.
func (s *Server) drain(c *conn) {
	defer s.writerWG.Done()
	for {
		c.mu.Lock()
		if c.state == connDead {
			c.mu.Unlock()
			return
		}
		var item outItem
		switch {
		case c.hasNotify:
			item = outItem{kind: outNotify, version: c.version, serial: c.notifySerial}
			c.hasNotify = false
		case len(c.queue) > 0:
			item = c.queue[0]
			copy(c.queue, c.queue[1:])
			c.queue[len(c.queue)-1] = outItem{}
			c.queue = c.queue[:len(c.queue)-1]
		default:
			closing := c.state == connClosing
			c.mu.Unlock()
			if closing {
				s.disconnect(c)
				return
			}
			<-c.wake
			continue
		}
		c.mu.Unlock()

		if err := s.writeItem(c, item); err != nil {
			if !errors.Is(err, net.ErrClosed) {
				s.logf("rtr server: write to %v: %v", c.c.RemoteAddr(), err)
			}
			s.disconnect(c)
			return
		}
	}
}

// disconnect tears a conn down from any goroutine: mark it dead, drop
// pending output, end its writer, close the socket (which unblocks a writer
// mid-write and the handler mid-read), deregister. Idempotent — the
// handler's exit path, the writer's failed write, an overflow, and Close may
// race here.
func (s *Server) disconnect(c *conn) {
	c.mu.Lock()
	if c.state == connDead {
		c.mu.Unlock()
		return
	}
	c.state = connDead
	c.queue = nil
	c.hasNotify = false
	c.mu.Unlock()
	c.wakeWriter()
	c.c.Close()
	s.regMu.Lock()
	delete(s.conns, c)
	s.regMu.Unlock()
}

// writeItem renders one response into the connection's buffer and flushes
// it. A notify's session comes from the published state at write time; its
// serial is the coalesced mailbox value (a router syncing to it learns of
// anything newer from End of Data).
func (s *Server) writeItem(c *conn, item outItem) error {
	s.setWriteDeadline(c)
	var err error
	switch item.kind {
	case outFull:
		err = s.streamFull(c, item.version)
	case outSerial:
		err = s.streamSerial(c, item.version, item.query)
	case outNotify:
		err = c.put(item.version, &SerialNotify{SessionID: s.pub.Load().session, Serial: item.serial})
	default: // outError
		err = c.put(item.version, &ErrorReport{Code: item.errCode, Text: item.errText})
	}
	if err != nil {
		return err
	}
	return c.bw.Flush()
}

func (s *Server) setWriteDeadline(c *conn) {
	d := s.WriteTimeout
	if d <= 0 {
		d = 30 * time.Second
	}
	// Errors (e.g. an already-closed socket) surface on the write itself.
	_ = c.c.SetWriteDeadline(time.Now().Add(d))
}

// put encodes one PDU into the buffer's spare capacity (AvailableBuffer),
// flushing first when that could not hold a fixed-size PDU: handed to an
// io.Writer instead, an encoding buffer escapes and costs an allocation.
func (c *conn) put(version byte, p PDU) error {
	if c.bw.Available() < headerLen+maxFixedBody {
		if err := c.bw.Flush(); err != nil {
			return err
		}
	}
	buf, err := appendPDU(c.bw.AvailableBuffer(), version, p)
	if err == nil {
		_, err = c.bw.Write(buf)
	}
	return err
}

// writePrefix is put for the per-VRP loops, which call appendPrefix without
// going through appendPDU's type switch.
func (c *conn) writePrefix(version byte, pp *Prefix) error {
	if c.bw.Available() < headerLen+maxFixedBody {
		if err := c.bw.Flush(); err != nil {
			return err
		}
	}
	_, err := c.bw.Write(appendPrefix(c.bw.AvailableBuffer(), version, pp))
	return err
}

// streamFull answers a Reset Query: Cache Response, every VRP, End of Data,
// streamed through the connection's reused encode buffer with one Prefix
// value reused for every VRP — the response is allocation-bounded
// regardless of table size.
func (s *Server) streamFull(c *conn, version byte) error {
	p := s.pub.Load()
	if err := c.put(version, &CacheResponse{SessionID: p.session}); err != nil {
		return err
	}
	pp := Prefix{Flags: FlagAnnounce}
	var werr error
	p.current().VisitVRPs(func(v rpki.VRP) bool {
		pp.VRP = v
		werr = c.writePrefix(version, &pp)
		return werr == nil
	})
	if werr != nil {
		return werr
	}
	return c.put(version, s.endOfData(p.session, p.serial))
}

// streamSerial answers a Serial Query from the published state at write
// time: an incremental update when the session matches and the router's
// serial is still in the snapshot ring, otherwise Cache Reset. The update
// is synthesized as rov.Diff between the retained snapshot and the current
// table — no stored chain, exact between any two retained serials: from the
// previous serial the delta the current snapshot carries, from further back
// O(changed), or the ≈ 4 ms full walk across a compaction (a query at the
// current serial diffs a snapshot against itself: the empty update).
func (s *Server) streamSerial(c *conn, version byte, q SerialQuery) error {
	p := s.pub.Load()
	from := p.lookup(q.Serial)
	if q.SessionID != p.session || from == nil {
		return c.put(version, &CacheReset{})
	}
	ann, wd := rov.Diff(from, p.current())
	if err := c.put(version, &CacheResponse{SessionID: p.session}); err != nil {
		return err
	}
	pp := Prefix{Flags: FlagAnnounce}
	for _, vrps := range [2][]rpki.VRP{ann, wd} { // announcements, then withdrawals
		for i := range vrps {
			pp.VRP = vrps[i]
			if err := c.writePrefix(version, &pp); err != nil {
				return err
			}
		}
		pp.Flags = FlagWithdraw
	}
	return c.put(version, s.endOfData(p.session, p.serial))
}

// Serve accepts router connections on l until Close is called. It always
// returns a non-nil error (net.ErrClosed after Close).
func (s *Server) Serve(l net.Listener) error {
	s.regMu.Lock()
	if s.closed {
		s.regMu.Unlock()
		return errors.New("rtr: server closed")
	}
	s.listener = l
	s.regMu.Unlock()
	for {
		nc, err := l.Accept()
		if err != nil {
			return err
		}
		go s.handle(nc)
	}
}

// ListenAndServe listens on addr ("host:port") and serves.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Close stops the listener, disconnects all routers, and waits for their
// writers to exit.
func (s *Server) Close() error {
	s.regMu.Lock()
	if s.closed {
		s.regMu.Unlock()
		return nil
	}
	s.closed = true
	var err error
	if s.listener != nil {
		err = s.listener.Close()
	}
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.regMu.Unlock()
	for _, c := range conns {
		s.disconnect(c)
	}
	s.writerWG.Wait()
	return err
}

func (s *Server) logf(format string, args ...interface{}) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// ConnCount reports the number of currently registered router sessions. It
// is an observability hook: the soak harness and the slow-router tests use
// it to watch routers being disconnected by write deadline or queue
// overflow.
func (s *Server) ConnCount() int {
	s.regMu.Lock()
	defer s.regMu.Unlock()
	return len(s.conns)
}

// handle runs one router session: it owns the read side, parses queries,
// and enqueues response descriptors for the conn's writer, which it starts.
// It never writes to the socket itself.
func (s *Server) handle(nc net.Conn) {
	c := &conn{
		c:       nc,
		bw:      bufio.NewWriterSize(nc, 4096),
		wake:    make(chan struct{}, 1),
		version: Version1,
		state:   connActive,
	}
	// Registering and counting the writer in one critical section with the
	// closed check means Close either sees this conn in the registry, with
	// its writer already counted, or this conn sees closed.
	s.regMu.Lock()
	if s.closed {
		s.regMu.Unlock()
		nc.Close() // lost the race with Close
		return
	}
	s.conns[c] = struct{}{}
	s.writerWG.Add(1)
	s.regMu.Unlock()
	go s.drain(c)
	defer s.release(c)

	// A router's queries are 8 and 12 bytes: through a reader that holds one,
	// header and body arrive in a single read(2). The buffer is per
	// connection, and a cache serves thousands, hence the size.
	br := bufio.NewReaderSize(nc, queryBufSize)
	for {
		pdu, version, err := ReadPDU(br)
		if err != nil {
			var pe *ProtocolError
			if errors.As(err, &pe) {
				// Reply in a version the protocol defines: the version byte
				// ReadPDU returned is the peer's own, which for an
				// unsupported-version PDU is the bogus byte itself, and the
				// encoder writes whatever version it is given. Fall back to
				// the connection's negotiated (or default) version.
				v := version
				if v != Version0 && v != Version1 {
					c.mu.Lock()
					v = c.version
					c.mu.Unlock()
				}
				s.enqueue(c, outItem{kind: outError, version: v, errCode: pe.Code, errText: pe.Msg}, true)
			}
			if !errors.Is(err, net.ErrClosed) {
				s.logf("rtr server: read: %v", err)
			}
			return
		}
		c.mu.Lock()
		c.version = version
		c.mu.Unlock()
		switch q := pdu.(type) {
		case *ResetQuery:
			if !s.enqueue(c, outItem{kind: outFull, version: version}, false) {
				return
			}
		case *SerialQuery:
			if !s.enqueue(c, outItem{kind: outSerial, version: version, query: *q}, false) {
				return
			}
		case *ErrorReport:
			s.logf("rtr server: router reported error %d: %s", q.Code, q.Text)
			return
		default:
			s.enqueue(c, outItem{
				kind:    outError,
				version: version,
				errCode: ErrInvalidRequest,
				errText: fmt.Sprintf("unexpected PDU type %d from router", pdu.Type()),
			}, true)
			return
		}
	}
}

// release ends a handler: an active conn is torn down; a closing conn is
// left to its writer, which closes the socket once the terminal Error
// Report drains.
func (s *Server) release(c *conn) {
	c.mu.Lock()
	st := c.state
	c.mu.Unlock()
	if st == connActive {
		s.disconnect(c)
	}
}

func (s *Server) endOfData(session uint16, serial Serial) *EndOfData {
	return &EndOfData{
		SessionID: session,
		Serial:    serial,
		Refresh:   s.Refresh,
		Retry:     s.Retry,
		Expire:    s.Expire,
	}
}
