package rtr

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
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
// serial-query answers, notifies — never take a lock. Each connection has
// two goroutines, and each owns its own state: the handler reads queries and
// is the only sender on the connection's bounded answer queue; the writer is
// its only receiver and the only goroutine that writes to the socket. It
// encodes every PDU — responses, Serial Notify, Cache Reset, the terminal
// Error Report — into the connection's buffer and sends each item with one
// flush. A publish closes the channel every writer waits on, and each writer
// woken writes one Serial Notify for the serial then published, so notifies
// coalesce to the newest and publishing is never socket I/O: a stalled
// router cannot slow an update down, and because no writer is shared, it
// cannot slow another router's answer down either (a pool of four writers
// made a healthy router wait 3.9 s behind eight wedged ones;
// TestSlowRouterIsolation holds a round under half a WriteTimeout). The price
// is one goroutine woken per router per publish. A router that stops
// draining its TCP side either overflows its queue or exceeds the write
// deadline, and is disconnected; a healthy RFC 8210 router simply redials and
// resumes with a Serial Query.
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
	// publishers (store). Readers Load it once and answer from that coherent
	// view.
	pub atomic.Pointer[published]
	// mu serializes publishers (UpdateSet, ApplyDelta, SetSession), Serve's
	// start, a connection's start and Close's flag. Readers never take it,
	// and nothing under it blocks.
	mu sync.Mutex
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
	served   *rpki.Set
	listener net.Listener
	closed   bool
	// cut is cancelled by Close, which cuts every router's socket through
	// the context.AfterFunc each connection registers on it. The first
	// connection creates it.
	cut       context.Context
	cancelCut context.CancelFunc
	// writers counts the per-connection writer goroutines; Close waits on it.
	// running is the same count, for ConnCount.
	writers sync.WaitGroup
	running atomic.Int32
}

// queryBufSize is each connection's read buffer: room for a Serial Query and
// a Reset Query back to back, no more (see read).
const queryBufSize = 32

// queueDepth bounds each connection's answer queue. A router that queues
// more unanswered queries than this — it is sending queries without reading
// responses — is disconnected. Serial Notifies do not count against the
// bound: they are never queued.
const queueDepth = 32

// published is the immutable publish state. Publishers build a fresh value
// (including a fresh snaps slice) and store it; a stored value is never
// mutated again, so lock-free readers see a coherent session, serial, and
// ring.
type published struct {
	session uint16
	serial  Serial
	snaps   []serialSnapshot // oldest first; last is the current serial's table
	// next is closed once the value that succeeds this one is stored. A
	// writer waits on the next of the value it last notified of, and reads
	// the value published when it wakes: newest wins.
	next chan struct{}
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

// outKind tags an item for the writer.
type outKind uint8

const (
	outFull   outKind = iota // Reset Query answer: full-table response
	outSerial                // Serial Query answer: delta, empty update, or Cache Reset
	outError                 // terminal Error Report: the handler's last item
	outNotify                // Serial Notify after a publish, never queued
)

// outItem is one item for the writer, queued by the handler or, for a
// notify, made by the writer when a publish wakes it. Queues hold
// descriptors, not materialized PDUs: the writer renders the response from
// the published state at write time, so a deep queue costs bytes per entry,
// not a table copy, and a delayed answer reflects the freshest data.
type outItem struct {
	kind    outKind
	version byte
	// query is the router's Serial Query for outSerial, and the session and
	// serial a notify announces for outNotify.
	query   SerialQuery
	errCode uint16 // outError
	errText string
}

type conn struct {
	c net.Conn
	// bw is the connection's one write path and reused encode buffer: every
	// PDU is appended into its spare capacity (put, writePrefix) and each
	// item ends in one flush, so no PDU costs an allocation and a full-table
	// answer never materializes len(vrps)+2 PDU values. The writer owns it.
	bw *bufio.Writer
	// queue carries the handler's answers to the writer, which is its only
	// receiver: queueDepth items of 32 B allocated whole, 1,120 B a router
	// with the channel itself. The handler is its only sender and closes it
	// when it ends.
	queue chan outItem
	// version is that of the most recent PDU received from the router, set
	// by the handler; a notify is written in it.
	version atomic.Uint32
}

// NewServer creates a cache serving the given initial VRP set, which the
// server keeps and the caller must not modify afterwards.
//
// The table is built once from the set's VRPs, which stay as they are:
// rov.NewTable builds from a copy in the trie's pre-order, so its slabs are
// laid out in the order every full response, compaction and diff walks them,
// as a cache's are after its first compaction.
func NewServer(initial *rpki.Set) *Server {
	if initial == nil {
		initial = rpki.NewSet(nil)
	}
	s := &Server{
		Refresh:      3600,
		Retry:        600,
		Expire:       7200,
		keepDeltas:   16,
		WriteTimeout: 30 * time.Second,
		live:         rov.NewTable(initial.VRPs()),
		served:       initial,
	}
	s.store(&published{session: 0x5eed, serial: 1, snaps: []serialSnapshot{{serial: 1, table: s.live.Snapshot()}}})
	return s
}

// Serial returns the current serial number (lock-free).
func (s *Server) Serial() Serial { return s.pub.Load().serial }

// SessionID returns the cache session identifier (lock-free).
func (s *Server) SessionID() uint16 { return s.pub.Load().session }

// SetSession overrides the session ID and serial the cache serves from. A
// cache restarted from a state snapshot keeps its previous session so routers
// resume their incremental stream with a Serial Query; a cache restarted
// fresh picks a new session ID, which (per RFC 8210 §5.5) forces routers
// through Cache Reset and a full resync. It is a publish like any other:
// connected routers are sent a Serial Notify for the new session and serial,
// and their next Serial Query, whose serial belongs to the old numbering, is
// answered with Cache Reset.
func (s *Server) SetSession(id uint16, serial Serial) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Prior serials belong to the old numbering; only the current table is
	// answerable incrementally from here.
	s.store(&published{
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
// UpdateSet never performs socket I/O: notifying N routers is closing one
// channel, so publish latency is independent of the slowest router.
func (s *Server) UpdateSet(next *rpki.Set) {
	s.mu.Lock()
	defer s.mu.Unlock()
	prev := s.served
	if prev == nil {
		prev = rpki.NewSet(s.pub.Load().current().AppendVRPs(nil))
	}
	s.served = next
	if ann, wd := prev.Diff(next); len(ann)+len(wd) != 0 {
		s.publishLocked(ann, wd)
	}
}

// ApplyDelta publishes an announce/withdraw delta directly — the O(delta)
// publish path for callers that track changes instead of whole sets (a
// delta-fed pipeline, the rtrload churn driver). Announces of VRPs already
// present and withdrawals of absent VRPs are no-ops; responses stay exact
// because every answer is synthesized by diffing retained snapshots. It
// returns the serial the delta was published under.
func (s *Server) ApplyDelta(announced, withdrawn []rpki.VRP) Serial {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.served = nil
	return s.publishLocked(announced, withdrawn)
}

// publishLocked applies a delta to the live table and stores the next
// published value: serial bumped, new snapshot appended, ring trimmed to
// keepDeltas+2 (the current serial plus the keepDeltas+1 serials behind it
// that stay answerable). The snaps slice is freshly allocated per publish —
// the ring is small — so the previous published value stays immutable under
// concurrent readers. Caller holds mu.
func (s *Server) publishLocked(announced, withdrawn []rpki.VRP) Serial {
	old := s.pub.Load()
	s.live.Apply(announced, withdrawn)
	serial := SerialAdvance(old.serial, 1)
	start := max(0, len(old.snaps)+1-(s.keepDeltas+2))
	snaps := make([]serialSnapshot, 0, len(old.snaps)-start+1)
	snaps = append(snaps, old.snaps[start:]...)
	snaps = append(snaps, serialSnapshot{serial: serial, table: s.live.Snapshot()})
	s.store(&published{session: old.session, serial: serial, snaps: snaps})
	return serial
}

// store publishes p and then closes the next of the value it replaces, which
// wakes every writer waiting to notify its router. Caller holds mu (or owns
// the Server, as NewServer does).
func (s *Server) store(p *published) {
	p.next = make(chan struct{})
	if old := s.pub.Swap(p); old != nil {
		close(old.next)
	}
}

// drain is the conn's writer goroutine, the only one that ever writes to the
// socket, so PDU framing is never interleaved. It writes what next hands it
// until the handler has ended and the queue is empty — after a terminal
// Error Report, that is the report sent — or a write fails, and then closes
// the socket. wake is the next of the published value it saw last: the one
// published when the connection started, or the one it last notified of.
func (s *Server) drain(c *conn, wake <-chan struct{}, unregister func() bool) {
	defer func() {
		unregister()
		c.c.Close()
		s.running.Add(-1)
		s.writers.Done()
	}()
	for {
		item, ok := s.next(c, &wake)
		if !ok {
			return
		}
		if err := s.writeItem(c, item); err != nil {
			if !errors.Is(err, net.ErrClosed) {
				s.logf("rtr server: write to %v: %v", c.c.RemoteAddr(), err)
			}
			return
		}
	}
}

// next waits for the writer's next item: a Serial Notify for the serial
// published now once a publish has closed wake, or the queue's next answer.
// The notify goes first — it supersedes nothing, a notify may legally
// interleave anywhere in the stream, and sending it first keeps "new data"
// latency independent of queued answers. ok is false once the queue is
// closed and empty.
func (s *Server) next(c *conn, wake *<-chan struct{}) (item outItem, ok bool) {
	select {
	case <-*wake:
	default:
		select {
		case <-*wake:
		case item, ok = <-c.queue:
			return item, ok
		}
	}
	p := s.pub.Load()
	*wake = p.next
	return outItem{kind: outNotify, version: byte(c.version.Load()), query: SerialQuery{SessionID: p.session, Serial: p.serial}}, true
}

// writeItem renders one response into the connection's buffer and flushes
// it. A notify announces the session and serial next read when it was made
// (a router syncing to it learns of anything newer from End of Data).
func (s *Server) writeItem(c *conn, item outItem) error {
	s.setWriteDeadline(c)
	var err error
	switch item.kind {
	case outFull:
		err = s.streamFull(c, item.version)
	case outSerial:
		err = s.streamSerial(c, item.version, item.query)
	case outNotify:
		err = c.put(item.version, &SerialNotify{SessionID: item.query.SessionID, Serial: item.query.Serial})
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
	s.mu.Lock()
	closed := s.closed
	if !closed {
		s.listener = l
	}
	s.mu.Unlock()
	if closed {
		return errors.New("rtr: server closed")
	}
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

// Close stops the listener, cuts every router's socket, and waits for their
// writers to exit. It holds no lock while it waits.
func (s *Server) Close() error {
	s.mu.Lock()
	closed := s.closed
	s.closed = true
	l, cancelCut := s.listener, s.cancelCut
	s.mu.Unlock()
	if closed {
		return nil
	}
	var err error
	if l != nil {
		err = l.Close()
	}
	if cancelCut != nil {
		cancelCut()
	}
	s.writers.Wait()
	return err
}

func (s *Server) logf(format string, args ...interface{}) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// ConnCount reports the number of router sessions whose writer is running. It
// is an observability hook: the soak harness and the slow-router tests use
// it to watch routers being disconnected by write deadline or queue
// overflow.
func (s *Server) ConnCount() int { return int(s.running.Load()) }

// handle runs one router session: it starts the conn's writer, reads the
// router's queries and queues their answers (read), and never writes to the
// socket itself. When read ends on anything but a terminal Error Report, it
// closes the socket, which ends a writer mid-write; it always closes the
// queue, which ends the writer once the queue is drained.
func (s *Server) handle(nc net.Conn) {
	c := &conn{c: nc, bw: bufio.NewWriterSize(nc, 4096), queue: make(chan outItem, queueDepth)}
	c.version.Store(uint32(Version1))
	wake, unregister := s.start(c)
	if unregister == nil {
		nc.Close() // lost the race with Close
		return
	}
	go s.drain(c, wake, unregister)
	if !s.read(c) {
		nc.Close()
	}
	close(c.queue)
}

// start counts c's writer in, unless the server is closed, and returns what
// the writer starts from: the next of the value published now, and the stop
// of the AfterFunc through which Close cuts c's socket. Counting the writer
// in the critical section that checks closed means Close's wait either
// includes it or start sees closed.
func (s *Server) start(c *conn) (wake <-chan struct{}, unregister func() bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, nil
	}
	if s.cut == nil {
		s.cut, s.cancelCut = context.WithCancel(context.Background())
	}
	s.writers.Add(1)
	s.running.Add(1)
	return s.pub.Load().next, context.AfterFunc(s.cut, func() { c.c.Close() })
}

// read parses the router's queries and queues their answers until the
// router's side ends. It reports whether its last item queued is a terminal
// Error Report, which the writer sends before it closes the socket.
func (s *Server) read(c *conn) (terminal bool) {
	// A router's queries are 8 and 12 bytes: through a reader that holds one,
	// header and body arrive in a single read(2). The buffer is per
	// connection, and a cache serves thousands, hence the size.
	br := bufio.NewReaderSize(c.c, queryBufSize)
	for {
		pdu, version, err := ReadPDU(br)
		if err != nil {
			if !errors.Is(err, net.ErrClosed) {
				s.logf("rtr server: read: %v", err)
			}
			var pe *ProtocolError
			if !errors.As(err, &pe) {
				return false
			}
			// Reply in a version the protocol defines: the version byte
			// ReadPDU returned is the peer's own, which for an
			// unsupported-version PDU is the bogus byte itself, and the
			// encoder writes whatever version it is given. Fall back to the
			// connection's negotiated (or default) version.
			if version != Version0 && version != Version1 {
				version = byte(c.version.Load())
			}
			return s.send(c, outItem{kind: outError, version: version, errCode: pe.Code, errText: pe.Msg})
		}
		c.version.Store(uint32(version))
		switch q := pdu.(type) {
		case *ResetQuery:
			if !s.send(c, outItem{kind: outFull, version: version}) {
				return false
			}
		case *SerialQuery:
			if !s.send(c, outItem{kind: outSerial, version: version, query: *q}) {
				return false
			}
		case *ErrorReport:
			s.logf("rtr server: router reported error %d: %s", q.Code, q.Text)
			return false
		default:
			return s.send(c, outItem{
				kind:    outError,
				version: version,
				errCode: ErrInvalidRequest,
				errText: fmt.Sprintf("unexpected PDU type %d from router", pdu.Type()),
			})
		}
	}
}

// send queues item for c's writer without blocking. A full queue is the
// overflow disconnect: send reports false, and the handler closes the socket.
func (s *Server) send(c *conn, item outItem) bool {
	select {
	case c.queue <- item:
		return true
	default:
		s.logf("rtr server: %v: outbound queue overflow (%d pending); disconnecting", c.c.RemoteAddr(), queueDepth)
		return false
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
