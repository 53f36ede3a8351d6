package rtr

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/rpki"
)

func testVRPs() *rpki.Set {
	return rpki.NewSet([]rpki.VRP{
		{Prefix: mp("168.122.0.0/16"), MaxLength: 16, AS: 111},
		{Prefix: mp("168.122.225.0/24"), MaxLength: 24, AS: 111},
		{Prefix: mp("87.254.32.0/19"), MaxLength: 20, AS: 31283},
		{Prefix: mp("2001:db8::/32"), MaxLength: 48, AS: 64496},
	})
}

// startServer runs a Server on a loopback listener and returns its address
// and a shutdown func.
func startServer(t *testing.T, s *Server) (string, func()) {
	t.Helper()
	needStartFloor(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = s.Serve(l)
	}()
	return l.Addr().String(), func() {
		s.Close()
		<-done
	}
}

// boundedWait is how long waitBounded lets one wait of a test run: far past a
// healthy run's, under -race on two cores too, and well inside the package's
// timeout, with room for a failed test's deferred waits after it. A wait gets
// at most a quarter of the time the test has left, too, so that a deadlock in
// every test after it still leaves each to fail by name before the package's
// timeout.
const boundedWait = 20 * time.Second

// waitBounded runs fn, a wait of the test's that a deadlock would hang, on a
// goroutine of its own. It fails the test with fn's error, or, when fn has not
// returned within boundedWait, with the wait's name and every goroutine's
// stack: the test fails by name instead of hanging the package until its
// timeout, and the stuck fn is left behind. fn must not call t's Fatal
// methods, which belong to the test's goroutine. A bubbled test needs none of
// this for a channel deadlock, which synctest reports by itself; a goroutine
// waiting on a sync.Mutex, though, is not durably blocked, and synctest sees
// no deadlock there.
func waitBounded(t *testing.T, what string, fn func() error) {
	t.Helper()
	bound := waitBound(t, boundedWait)
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(bound):
		buf := make([]byte, 1<<20)
		t.Fatalf("%s: still blocked after %v, a deadlock; every goroutine:\n%s", what, bound, buf[:runtime.Stack(buf, true)])
	}
}

// waitBound is the longest one wait of t may take: limit, or a quarter of
// the time t has left if that is less.
func waitBound(t *testing.T, limit time.Duration) time.Duration {
	if dl, ok := t.Deadline(); ok {
		return min(limit, time.Until(dl)/4)
	}
	return limit
}

// startFloor is the part of the package's deadline no test starts a cache
// in. Once a deadlock has failed test after test, each by a bounded wait, a
// test that builds a 50,000-VRP set spends seconds before its first wait
// under -race, and even a small one's set-up outlasts what is left: with a
// deadlock in the cache's publish path and only the three heavy tests
// checking, the package ended 0.4 s short of its timeout, and 38 ms with a
// re-locked Server.mu.
const startFloor = 15 * time.Second

// needStartFloor fails t by name, before it builds or dials anything, when
// less than startFloor is left of the package's deadline: the package then
// ends in named failures, not in a test timeout that names only the test
// that was running. startServer and serve call it, and so does each test
// that builds a 50,000-VRP set before it starts its cache, or waits on a cache
// before it starts one or without starting one.
func needStartFloor(t *testing.T) {
	t.Helper()
	if dl, ok := t.Deadline(); ok && time.Until(dl) < startFloor {
		t.Fatalf("not started: %v left of the package's deadline, under the %v this test needs", time.Until(dl).Round(time.Millisecond), startFloor)
	}
}

// dialBounded, syncBounded and notifyBounded are Dial and the Client's waits
// that return a value, through waitBounded: a deadlock in the cache or the
// session fails the test, naming the wait (what), instead of hanging the
// package.
func dialBounded(t *testing.T, addr string) *Client {
	t.Helper()
	var c *Client
	waitBounded(t, "dialing the cache", func() (err error) { c, err = Dial(addr); return err })
	return c
}

func syncBounded(t *testing.T, c *Client, what string) Serial {
	t.Helper()
	var s Serial
	waitBounded(t, what, func() (err error) { s, err = c.Sync(); return err })
	return s
}

func notifyBounded(t *testing.T, c *Client, what string) Serial {
	t.Helper()
	var s Serial
	waitBounded(t, what, func() (err error) { s, err = c.WaitNotify(); return err })
	return s
}

func TestFullSync(t *testing.T) {
	set := testVRPs()
	srv := NewServer(set)
	addr, stop := startServer(t, srv)
	defer waitBounded(t, "stopping the cache", func() error { stop(); return nil })

	c := dialBounded(t, addr)
	defer c.Close()
	waitBounded(t, "the full sync", c.Reset)
	if !c.Set().Equal(set) {
		t.Fatalf("client set %v != served %v", c.Set().VRPs(), set.VRPs())
	}
	if c.Serial() != srv.Serial() || c.SessionID() != srv.SessionID() {
		t.Errorf("serial/session mismatch: %d/%d vs %d/%d",
			c.Serial(), c.SessionID(), srv.Serial(), srv.SessionID())
	}
}

func TestFullSyncVersion0(t *testing.T) {
	set := testVRPs()
	srv := NewServer(set)
	addr, stop := startServer(t, srv)
	defer waitBounded(t, "stopping the cache", func() error { stop(); return nil })

	c := dialBounded(t, addr)
	defer c.Close()
	c.Version = Version0
	waitBounded(t, "the full sync", c.Reset)
	if c.Len() != set.Len() {
		t.Fatalf("v0 sync got %d VRPs, want %d", c.Len(), set.Len())
	}
}

func TestIncrementalSync(t *testing.T) {
	set := testVRPs()
	srv := NewServer(set)
	addr, stop := startServer(t, srv)
	defer waitBounded(t, "stopping the cache", func() error { stop(); return nil })

	c := dialBounded(t, addr)
	defer c.Close()
	syncBounded(t, c, "the first sync, with no state: a full reset")
	before := c.Serial()

	// Mutate the served set: drop one VRP, add another.
	next := rpki.NewSet(append(set.VRPs()[1:],
		rpki.VRP{Prefix: mp("10.0.0.0/8"), MaxLength: 8, AS: 7}))
	waitBounded(t, "publishing the update", func() error { srv.UpdateSet(next); return nil })

	// The client receives a Serial Notify...
	serial := notifyBounded(t, c, "waiting for the update's Serial Notify")
	if serial != before+1 {
		t.Errorf("notify serial = %d, want %d", serial, before+1)
	}
	// ...and an incremental Sync converges.
	if got := syncBounded(t, c, "the incremental sync"); got != serial {
		t.Errorf("synced to %d, want %d", got, serial)
	}
	if !c.Set().Equal(next) {
		t.Fatalf("after delta: %v, want %v", c.Set().VRPs(), next.VRPs())
	}
}

func TestSyncAfterManyUpdates(t *testing.T) {
	set := testVRPs()
	srv := NewServer(set)
	addr, stop := startServer(t, srv)
	defer waitBounded(t, "stopping the cache", func() error { stop(); return nil })

	c := dialBounded(t, addr)
	defer c.Close()
	syncBounded(t, c, "the first sync")
	// Several updates between syncs: the delta chain must compose. The five
	// notifies coalesce — the dispatch loop keeps only the newest pending
	// serial — so one WaitNotify wake-up is all the client needs before the
	// sync, and any notifies still in flight during the sync are consumed by
	// the dispatch loop without disturbing the response stream.
	cur := set
	for i := 0; i < 5; i++ {
		cur = rpki.NewSet(append(cur.VRPs(),
			rpki.VRP{Prefix: mp("10.0.0.0/8"), MaxLength: uint8(8 + i), AS: rpki.ASN(100 + i)}))
		waitBounded(t, fmt.Sprintf("publishing update %d", i), func() error { srv.UpdateSet(cur); return nil })
	}
	notifyBounded(t, c, "waiting for the updates' Serial Notify")
	syncBounded(t, c, "the sync across five updates")
	if !c.Set().Equal(cur) {
		t.Fatalf("after chain: %d VRPs, want %d", c.Len(), cur.Len())
	}
}

func TestCacheResetFallback(t *testing.T) {
	set := testVRPs()
	srv := NewServer(set)
	srv.keepDeltas = 1
	addr, stop := startServer(t, srv)
	defer waitBounded(t, "stopping the cache", func() error { stop(); return nil })

	c := dialBounded(t, addr)
	defer c.Close()
	syncBounded(t, c, "the first sync")
	// Expire the delta the client would need: many updates with KeepDeltas=1.
	cur := set
	for i := 0; i < 4; i++ {
		cur = rpki.NewSet(append(cur.VRPs(),
			rpki.VRP{Prefix: mp("10.0.0.0/8"), MaxLength: uint8(8 + i), AS: rpki.ASN(200 + i)}))
		waitBounded(t, fmt.Sprintf("publishing update %d", i), func() error { srv.UpdateSet(cur); return nil })
	}
	notifyBounded(t, c, "waiting for the updates' Serial Notify")
	// Sync must fall back to a full reset transparently and still converge.
	syncBounded(t, c, "the sync that falls back to a reset")
	if !c.Set().Equal(cur) {
		t.Fatalf("after fallback: %d VRPs, want %d", c.Len(), cur.Len())
	}
}

func TestServerRejectsUnexpectedPDU(t *testing.T) {
	srv := NewServer(testVRPs())
	addr, stop := startServer(t, srv)
	defer waitBounded(t, "stopping the cache", func() error { stop(); return nil })

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	// A router must not send Cache Response; the server answers with an
	// Error Report and closes.
	if err := WritePDU(nc, Version1, &CacheResponse{SessionID: 1}); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	pdu, _, err := ReadPDU(nc)
	if err != nil {
		t.Fatal(err)
	}
	er, ok := pdu.(*ErrorReport)
	if !ok || er.Code != ErrInvalidRequest {
		t.Fatalf("got %T %+v, want invalid-request ErrorReport", pdu, pdu)
	}
}

func TestServerReportsCorruptPDU(t *testing.T) {
	srv := NewServer(testVRPs())
	addr, stop := startServer(t, srv)
	defer waitBounded(t, "stopping the cache", func() error { stop(); return nil })

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Write([]byte{1, 2, 0, 0, 0, 0, 0, 3}); err != nil { // bad length
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	pdu, _, err := ReadPDU(nc)
	if err != nil {
		t.Fatal(err)
	}
	if er, ok := pdu.(*ErrorReport); !ok || er.Code != ErrCorruptData {
		t.Fatalf("got %T, want corrupt-data ErrorReport", pdu)
	}
}

// TestServerReportsUnsupportedVersion: a PDU with a bogus version byte must
// still be answered with an Error Report — sent with the connection's
// negotiated (default) version, since a PDU carrying the peer's bogus byte
// is one no router can parse.
func TestServerReportsUnsupportedVersion(t *testing.T) {
	srv := NewServer(testVRPs())
	addr, stop := startServer(t, srv)
	defer waitBounded(t, "stopping the cache", func() error { stop(); return nil })

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	// A Reset Query header with version byte 9.
	if _, err := nc.Write([]byte{9, 2, 0, 0, 0, 0, 0, 8}); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	pdu, version, err := ReadPDU(nc)
	if err != nil {
		t.Fatalf("no Error Report came back: %v", err)
	}
	er, ok := pdu.(*ErrorReport)
	if !ok || er.Code != ErrUnsupportedVersion {
		t.Fatalf("got %T %+v, want unsupported-version ErrorReport", pdu, pdu)
	}
	if version != Version1 {
		t.Errorf("Error Report version = %d, want the default %d", version, Version1)
	}
}

// serialQueryResponse dials the server, issues one Serial Query, and returns
// every PDU up to and including the Cache Reset or End of Data terminator.
func serialQueryResponse(t *testing.T, addr string, session uint16, serial Serial) []PDU {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := WritePDU(nc, Version1, &SerialQuery{SessionID: session, Serial: serial}); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	var pdus []PDU
	for {
		pdu, _, err := ReadPDU(nc)
		if err != nil {
			t.Fatalf("reading serial-query response: %v", err)
		}
		pdus = append(pdus, pdu)
		switch pdu.(type) {
		case *CacheReset, *EndOfData:
			return pdus
		}
	}
}

// TestKeepDeltasEvictionBoundary pins the delta-retention window: with
// KeepDeltas = k, the oldest router serial still answerable incrementally is
// current-k-1; one serial older than that needs an evicted delta and must
// get Cache Reset.
func TestKeepDeltasEvictionBoundary(t *testing.T) {
	needStartFloor(t)
	set := testVRPs()
	srv := NewServer(set)
	srv.keepDeltas = 3
	cur := set
	for i := 0; i < 5; i++ { // serial 1 -> 6; deltas for 3..6 retained
		cur = rpki.NewSet(append(cur.VRPs(),
			rpki.VRP{Prefix: mp("10.0.0.0/8"), MaxLength: uint8(8 + i), AS: rpki.ASN(100 + i)}))
		waitBounded(t, fmt.Sprintf("publish %d", i), func() error { srv.UpdateSet(cur); return nil })
	}
	addr, stop := startServer(t, srv)
	defer waitBounded(t, "stopping the cache", func() error { stop(); return nil })
	session := srv.SessionID()

	// Serial 2 needs the chain 3..6 — all retained: incremental update with
	// one announcement per delta.
	pdus := serialQueryResponse(t, addr, session, 2)
	if _, ok := pdus[0].(*CacheResponse); !ok {
		t.Fatalf("in-window query: first PDU is %T, want Cache Response", pdus[0])
	}
	announces := 0
	for _, p := range pdus {
		if pp, ok := p.(*Prefix); ok && pp.Flags&FlagAnnounce != 0 {
			announces++
		}
	}
	if announces != 4 {
		t.Fatalf("in-window query: %d announcements, want 4", announces)
	}
	eod, ok := pdus[len(pdus)-1].(*EndOfData)
	if !ok || eod.Serial != srv.Serial() {
		t.Fatalf("in-window query: terminator %T %+v, want End of Data at serial %d",
			pdus[len(pdus)-1], pdus[len(pdus)-1], srv.Serial())
	}

	// Serial 1 needs the evicted delta 2: Cache Reset.
	pdus = serialQueryResponse(t, addr, session, 1)
	if len(pdus) != 1 {
		t.Fatalf("one-past-window query: got %d PDUs, want a lone Cache Reset", len(pdus))
	}
	if _, ok := pdus[0].(*CacheReset); !ok {
		t.Fatalf("one-past-window query: got %T, want Cache Reset", pdus[0])
	}
}

// diffSets computes the announce/withdraw delta between two full sets by a
// linear dual walk in canonical order, written apart from rpki.Set.Diff (the
// walk UpdateSet takes its delta with): it stays here as the independent
// reference implementation the differential tests check the structural diff
// behind Serial Query answers against.
func diffSets(old, next *rpki.Set) []Prefix {
	var out []Prefix
	a, b := old.VRPs(), next.VRPs()
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case i >= len(a):
			out = append(out, Prefix{Flags: FlagAnnounce, VRP: b[j]})
			j++
		case j >= len(b):
			out = append(out, Prefix{Flags: FlagWithdraw, VRP: a[i]})
			i++
		default:
			switch c := a[i].Compare(b[j]); {
			case c == 0:
				i++
				j++
			case c < 0:
				out = append(out, Prefix{Flags: FlagWithdraw, VRP: a[i]})
				i++
			default:
				out = append(out, Prefix{Flags: FlagAnnounce, VRP: b[j]})
				j++
			}
		}
	}
	return out
}

func TestDiffSets(t *testing.T) {
	a := rpki.NewSet([]rpki.VRP{
		{Prefix: mp("10.0.0.0/8"), MaxLength: 8, AS: 1},
		{Prefix: mp("11.0.0.0/8"), MaxLength: 8, AS: 1},
	})
	b := rpki.NewSet([]rpki.VRP{
		{Prefix: mp("11.0.0.0/8"), MaxLength: 8, AS: 1},
		{Prefix: mp("12.0.0.0/8"), MaxLength: 8, AS: 1},
	})
	d := diffSets(a, b)
	if len(d) != 2 {
		t.Fatalf("diff = %+v", d)
	}
	var announces, withdraws int
	for _, p := range d {
		if p.Flags&FlagAnnounce != 0 {
			announces++
			if p.VRP.Prefix != mp("12.0.0.0/8") {
				t.Errorf("announced %v", p.VRP)
			}
		} else {
			withdraws++
			if p.VRP.Prefix != mp("10.0.0.0/8") {
				t.Errorf("withdrew %v", p.VRP)
			}
		}
	}
	if announces != 1 || withdraws != 1 {
		t.Errorf("announces=%d withdraws=%d", announces, withdraws)
	}
	if len(diffSets(a, a)) != 0 {
		t.Error("self-diff not empty")
	}
}

func TestMultipleClients(t *testing.T) {
	set := testVRPs()
	srv := NewServer(set)
	addr, stop := startServer(t, srv)
	defer waitBounded(t, "stopping the cache", func() error { stop(); return nil })

	const n = 8
	clients := make([]*Client, n)
	for i := range clients {
		c := dialBounded(t, addr)
		defer c.Close()
		waitBounded(t, fmt.Sprintf("client %d's full sync", i), c.Reset)
		clients[i] = c
	}
	next := rpki.NewSet(append(set.VRPs(),
		rpki.VRP{Prefix: mp("10.0.0.0/8"), MaxLength: 8, AS: 7}))
	waitBounded(t, "publishing the update", func() error { srv.UpdateSet(next); return nil })
	for i, c := range clients {
		notifyBounded(t, c, fmt.Sprintf("client %d waiting for the update's Serial Notify", i))
		syncBounded(t, c, fmt.Sprintf("client %d's incremental sync", i))
		if !c.Set().Equal(next) {
			t.Fatalf("client %d diverged", i)
		}
	}
}

// TestSubscribeReportsAppliedDeltas pins the exactness of Subscribe's
// deltas: a consumer receives exactly the VRPs each update added and removed
// — across the initial full sync, an incremental delta, and a no-op sync (no
// delivery) — so replaying them keeps a second table in step with the
// client's. Delivery happens before Sync returns, so consumer state is read
// right after it.
func TestSubscribeReportsAppliedDeltas(t *testing.T) {
	set := testVRPs()
	srv := NewServer(set)
	addr, stop := startServer(t, srv)
	defer waitBounded(t, "stopping the cache", func() error { stop(); return nil })

	c := dialBounded(t, addr)
	defer c.Close()

	mirror := map[rpki.VRP]struct{}{}
	calls := 0
	c.Subscribe(func(announced, withdrawn []rpki.VRP) {
		calls++
		replayDelta(t, mirror, announced, withdrawn)
	})
	check := func(wantCalls int) {
		t.Helper()
		if calls != wantCalls {
			t.Fatalf("deliveries = %d, want %d", calls, wantCalls)
		}
		if got := mirrorSet(mirror); !got.Equal(c.Set()) {
			t.Fatalf("delta mirror %v != table %v", got.VRPs(), c.Set().VRPs())
		}
	}

	syncBounded(t, c, "the initial full sync: everything announced")
	check(1)
	if len(mirror) != set.Len() {
		t.Fatalf("after full sync: %d mirrored VRPs, want %d", len(mirror), set.Len())
	}

	// Incremental update: one VRP dropped, one added.
	next := rpki.NewSet(append(set.VRPs()[1:],
		rpki.VRP{Prefix: mp("10.0.0.0/8"), MaxLength: 8, AS: 7}))
	waitBounded(t, "publishing the update", func() error { srv.UpdateSet(next); return nil })
	notifyBounded(t, c, "waiting for the update's Serial Notify")
	syncBounded(t, c, "the incremental sync")
	check(2)

	// A sync with nothing new must not deliver.
	syncBounded(t, c, "a sync with nothing new")
	check(2)
}

// replayDelta applies one Subscribe delivery to a set-shaped mirror and
// fails the test when the delta is not exact: an announce of a VRP the
// mirror holds, or a withdrawal of one it does not.
func replayDelta(t *testing.T, mirror map[rpki.VRP]struct{}, announced, withdrawn []rpki.VRP) {
	t.Helper()
	for _, v := range announced {
		if _, ok := mirror[v]; ok {
			t.Errorf("announced already-present VRP %s", v)
		}
		mirror[v] = struct{}{}
	}
	for _, v := range withdrawn {
		if _, ok := mirror[v]; !ok {
			t.Errorf("withdrew absent VRP %s", v)
		}
		delete(mirror, v)
	}
}

// vrpSet returns vs as a membership set.
func vrpSet(vs []rpki.VRP) map[rpki.VRP]struct{} {
	m := make(map[rpki.VRP]struct{}, len(vs))
	for _, v := range vs {
		m[v] = struct{}{}
	}
	return m
}

func mirrorSet(mirror map[rpki.VRP]struct{}) *rpki.Set {
	vrps := make([]rpki.VRP, 0, len(mirror))
	for v := range mirror {
		vrps = append(vrps, v)
	}
	return rpki.NewSet(vrps)
}

// TestSerialDeltaMatchesChainedDeltas pins the snapshot-diff refactor to the
// behavior of the per-serial delta chain it replaced. The test replays the
// chain the old server stored — one diffSets delta per update, concatenated
// from the query serial forward — and requires the synthesized response to
// (a) transform the table at the query serial into exactly the same final
// table the chain produces, and (b) be the minimal form of that update: no
// announcement of a VRP the router already holds, no withdrawal of one it
// does not, no VRP appearing as both.
func TestSerialDeltaMatchesChainedDeltas(t *testing.T) {
	needStartFloor(t)
	srv := NewServer(testVRPs())
	srv.keepDeltas = 4

	applyPrefixPDUs := func(t *testing.T, table map[rpki.VRP]bool, delta []Prefix) {
		t.Helper()
		for _, p := range delta {
			if p.Flags == FlagAnnounce {
				table[p.VRP] = true
			} else {
				delete(table, p.VRP)
			}
		}
	}
	asMap := func(vrps []rpki.VRP) map[rpki.VRP]bool {
		m := make(map[rpki.VRP]bool, len(vrps))
		for _, v := range vrps {
			m[v] = true
		}
		return m
	}

	// Six updates with adds, removes, and churn (a VRP announced in one
	// update and withdrawn in a later one, which the chain carries as two
	// ops and the synthesized diff must cancel entirely).
	tables := map[Serial][]rpki.VRP{1: testVRPs().VRPs()}
	chains := map[Serial][]Prefix{}
	cur := testVRPs()
	churn := rpki.VRP{Prefix: mp("203.0.113.0/24"), MaxLength: 24, AS: 64500}
	for i := 0; i < 6; i++ {
		vrps := append([]rpki.VRP(nil), cur.VRPs()...)
		switch i {
		case 0:
			vrps = append(vrps, churn)
		case 2:
			vrps = vrps[1:] // withdraw the canonically-first VRP
		case 4: // withdraw the churn VRP again
			kept := vrps[:0]
			for _, v := range vrps {
				if v != churn {
					kept = append(kept, v)
				}
			}
			vrps = kept
		}
		vrps = append(vrps, rpki.VRP{Prefix: mp("10.0.0.0/8"), MaxLength: uint8(9 + i), AS: rpki.ASN(200 + i)})
		next := rpki.NewSet(vrps)
		chains[Serial(2+i)] = diffSets(cur, next)
		waitBounded(t, fmt.Sprintf("publish %d", i), func() error { srv.UpdateSet(next); return nil })
		cur = next
		tables[Serial(2+i)] = cur.VRPs()
	}
	final := srv.Serial() // 7
	addr, stop := startServer(t, srv)
	defer waitBounded(t, "stopping the cache", func() error { stop(); return nil })
	session := srv.SessionID()

	for q := Serial(2); q != final+1; q++ {
		pdus := serialQueryResponse(t, addr, session, q)
		var resp []Prefix
		for _, p := range pdus {
			if pp, ok := p.(*Prefix); ok {
				resp = append(resp, *pp)
			}
		}
		// The old chain's output: every stored delta from q+1 through final,
		// concatenated, applied in order.
		chainTable := asMap(tables[q])
		for s := q + 1; s != final+1; s++ {
			d, ok := chains[s]
			if !ok {
				t.Fatalf("test bug: no chain delta for serial %d", s)
			}
			applyPrefixPDUs(t, chainTable, d)
		}
		// (a) Same net effect.
		gotTable := asMap(tables[q])
		applyPrefixPDUs(t, gotTable, resp)
		if len(gotTable) != len(chainTable) {
			t.Fatalf("serial %d: synthesized delta yields %d VRPs, chain yields %d", q, len(gotTable), len(chainTable))
		}
		for v := range chainTable {
			if !gotTable[v] {
				t.Fatalf("serial %d: synthesized delta missing %v from the chained table", q, v)
			}
		}
		// (b) Minimal form.
		start := asMap(tables[q])
		seen := map[rpki.VRP]bool{}
		for _, p := range resp {
			if seen[p.VRP] {
				t.Fatalf("serial %d: VRP %v appears twice in the synthesized delta", q, p.VRP)
			}
			seen[p.VRP] = true
			if p.Flags == FlagAnnounce && start[p.VRP] {
				t.Fatalf("serial %d: redundant announce of %v", q, p.VRP)
			}
			if p.Flags == FlagWithdraw && !start[p.VRP] {
				t.Fatalf("serial %d: withdraw of absent %v", q, p.VRP)
			}
		}
	}

	// One serial past the retention horizon: Cache Reset, as before.
	pdus := serialQueryResponse(t, addr, session, 1)
	if _, ok := pdus[len(pdus)-1].(*CacheReset); !ok {
		t.Fatalf("serial 1 (evicted): got %T, want CacheReset", pdus[len(pdus)-1])
	}
}

// TestUpdateSetUnchangedPublishesNothing: refreshing the cache with the
// table it already serves — a SIGHUP on an unchanged file — takes no serial
// and wakes no router, whether the served set is retained or, after an
// ApplyDelta, read back from the table.
func TestUpdateSetUnchangedPublishesNothing(t *testing.T) {
	set := testVRPs()
	srv := NewServer(set)
	addr, stop := startServer(t, srv)
	defer waitBounded(t, "stopping the cache", func() error { stop(); return nil })
	c := dialBounded(t, addr)
	defer c.Close()
	syncBounded(t, c, "the first sync")
	quiet := func(what string, before Serial) {
		t.Helper()
		if got := srv.Serial(); got != before {
			t.Fatalf("%s moved the serial from %d to %d", what, before, got)
		}
		// The server writes a pending notify ahead of any queued response, so
		// one sent by the call above would be here before this Sync returns.
		if got := syncBounded(t, c, what+": the sync after it"); got != before {
			t.Fatalf("%s: Sync = %d, want %d", what, got, before)
		}
		select {
		case s := <-c.Notify():
			t.Fatalf("%s notified serial %d", what, s)
		default:
		}
	}
	before := srv.Serial()
	waitBounded(t, "UpdateSet with an equal set", func() error { srv.UpdateSet(rpki.NewSet(set.VRPs())); return nil })
	quiet("UpdateSet with an equal set", before)

	extra := rpki.VRP{Prefix: mp("10.0.0.0/8"), MaxLength: 8, AS: 7}
	var after Serial
	waitBounded(t, "ApplyDelta", func() error { after = srv.ApplyDelta([]rpki.VRP{extra}, nil); return nil })
	if s := notifyBounded(t, c, "waiting for ApplyDelta's Serial Notify"); s != after {
		t.Fatalf("WaitNotify = %d, want %d", s, after)
	}
	grown := set.Clone()
	grown.Add(extra)
	waitBounded(t, "UpdateSet with the table ApplyDelta left", func() error { srv.UpdateSet(grown); return nil })
	quiet("UpdateSet with the table ApplyDelta left", after)

	waitBounded(t, "UpdateSet with a real change", func() error { srv.UpdateSet(set); return nil })
	if s := notifyBounded(t, c, "waiting for a real change's Serial Notify"); s != after+1 {
		t.Fatalf("after a real change WaitNotify = %d, want %d", s, after+1)
	}
	if syncBounded(t, c, "the sync after a real change"); !c.Set().Equal(set) {
		t.Fatalf("after a real change: table %v, want %v", c.Set().VRPs(), set.VRPs())
	}
}

// TestUpdateSetApplyDeltaInterleaved runs random histories of UpdateSet —
// small changes, wholesale replacements, repeats of the served table — and
// ApplyDelta, which leaves the set UpdateSet retained stale, while a follower
// keeps syncing incrementally. After every step a router connecting fresh
// must be handed exactly the intended table, and at the end the follower,
// which got there by Serial Queries alone, must hold it too.
func TestUpdateSetApplyDeltaInterleaved(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	pool := make([]rpki.VRP, 400)
	for i := range pool {
		pool[i] = rpki.VRP{Prefix: mp(fmt.Sprintf("10.%d.%d.0/24", i%7, i%200)), MaxLength: uint8(24 + i%3), AS: rpki.ASN(64500 + i%11)}
	}
	pick := func(n int) []rpki.VRP {
		out := make([]rpki.VRP, n)
		for i := range out {
			out[i] = pool[rng.Intn(len(pool))]
		}
		return out
	}
	want := rpki.NewSet(pick(200))
	srv := NewServer(want)
	addr, stop := startServer(t, srv)
	defer waitBounded(t, "stopping the cache", func() error { stop(); return nil })

	follower := dialBounded(t, addr)
	defer follower.Close()
	following := make(chan error, 1)
	go func() {
		for {
			if _, err := follower.Sync(); err != nil {
				following <- err
				return
			}
			if _, err := follower.WaitNotify(); err != nil {
				following <- nil // closed below, once the history is over
				return
			}
		}
	}()

	for step := 0; step < 120; step++ {
		// The ring keeps 16 serials: a follower the scheduler starved for that
		// many steps would be sent a Cache Reset, a different test's subject.
		for deadline := time.Now().Add(5 * time.Second); SerialNewer(srv.Serial(), SerialAdvance(follower.Serial(), 8)) && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		switch op := rng.Intn(8); {
		case op < 3: // ApplyDelta; withdrawals win, as in the table
			a, w := pick(rng.Intn(6)), pick(rng.Intn(6))
			waitBounded(t, fmt.Sprintf("step %d: ApplyDelta", step), func() error { srv.ApplyDelta(a, w); return nil })
			gone := vrpSet(w)
			next := make([]rpki.VRP, 0, want.Len()+len(a))
			for _, v := range append(want.VRPs(), a...) {
				if _, ok := gone[v]; !ok {
					next = append(next, v)
				}
			}
			want = rpki.NewSet(next)
		case op < 6: // a validator cycle: most of the table stays
			kept := want.VRPs()[rng.Intn(want.Len()/8+1):]
			want = rpki.NewSet(append(pick(rng.Intn(8)), kept...))
			waitBounded(t, fmt.Sprintf("step %d: UpdateSet", step), func() error { srv.UpdateSet(want); return nil })
		case op < 7: // the same table again
			want = rpki.NewSet(want.VRPs())
			waitBounded(t, fmt.Sprintf("step %d: UpdateSet", step), func() error { srv.UpdateSet(want); return nil })
		default: // a different table altogether
			want = rpki.NewSet(pick(150 + rng.Intn(100)))
			waitBounded(t, fmt.Sprintf("step %d: UpdateSet", step), func() error { srv.UpdateSet(want); return nil })
		}
		fresh := dialBounded(t, addr)
		waitBounded(t, fmt.Sprintf("step %d: a fresh router's full sync", step), fresh.Reset)
		got := fresh.Set()
		fresh.Close()
		if added, removed := want.Diff(got); len(added)+len(removed) > 0 {
			t.Fatalf("step %d: a fresh router holds %v too many and lacks %v", step, added, removed)
		}
	}

	// The follower saw every serial or a later one; let it catch up, then
	// end its loop.
	deadline := time.Now().Add(5 * time.Second)
	for follower.Serial() != srv.Serial() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	follower.Close()
	waitBounded(t, "the follower's sync loop ending", func() error { return <-following })
	if !follower.Set().Equal(want) || follower.FullSyncs() != 1 {
		t.Fatalf("follower ended at serial %d (cache %d) after %d full syncs, %d VRPs against the cache's %d",
			follower.Serial(), srv.Serial(), follower.FullSyncs(), follower.Len(), want.Len())
	}
}

// captureConn is a net.Conn that keeps what is written to it.
type captureConn struct {
	discardConn
	buf bytes.Buffer
}

func (c *captureConn) Write(p []byte) (int, error) { return c.buf.Write(p) }

// TestNewServerLeavesItsArgumentAlone pins the two halves of NewServer's
// ordering: the set it was given — shared with the caller, AS-major — is
// element for element what it was, and the table built from it streams its
// first full response in canonical prefix order, one prefix's VRPs by (AS,
// MaxLength).
func TestNewServerLeavesItsArgumentAlone(t *testing.T) {
	var vrps []rpki.VRP
	for i := 0; i < 400; i++ { // many origins a prefix, many prefixes an origin
		p := mp(fmt.Sprintf("10.%d.%d.0/24", i%7, i%31))
		vrps = append(vrps, rpki.VRP{Prefix: p, MaxLength: 24 + uint8(i%3), AS: rpki.ASN(64500 + i%11)})
	}
	vrps = append(vrps, rpki.VRP{Prefix: mp("2001:db8::/32"), MaxLength: 48, AS: 64500}, rpki.VRP{Prefix: mp("10.0.0.0/8"), MaxLength: 8, AS: 64510})
	set := rpki.NewSet(vrps)
	before := slices.Clone(set.VRPs())
	srv := NewServer(set)
	defer srv.Close()
	if !slices.Equal(set.VRPs(), before) {
		t.Fatal("NewServer reordered the set it was given")
	}

	wire := &captureConn{}
	if err := srv.writeItem(&conn{c: wire, bw: bufio.NewWriterSize(wire, 4096)}, outItem{kind: outFull, version: Version1}); err != nil {
		t.Fatal(err)
	}
	var streamed []rpki.VRP
	for wire.buf.Len() > 0 {
		pdu, _, err := ReadPDU(&wire.buf)
		if err != nil {
			t.Fatal(err)
		}
		if p, ok := pdu.(*Prefix); ok {
			streamed = append(streamed, p.VRP)
		}
	}
	if len(streamed) != set.Len() {
		t.Fatalf("the first full response carries %d VRPs, want %d", len(streamed), set.Len())
	}
	for i := 1; i < len(streamed); i++ {
		a, b := streamed[i-1], streamed[i]
		if c := a.Prefix.Compare(b.Prefix); c > 0 || c == 0 && a.Compare(b) >= 0 {
			t.Fatalf("the first full response is out of order at %d: %v before %v", i, a, b)
		}
	}
}
