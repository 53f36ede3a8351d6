package rtr

import (
	"fmt"
	"net"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/rpki"
)

func TestSerialLess(t *testing.T) {
	cases := []struct {
		a, b Serial
		want bool
	}{
		{0, 1, true},
		{1, 0, false},
		{5, 5, false},
		{0xffffffff, 0, true},          // wrap
		{0, 0xffffffff, false},         // wrap, reversed
		{0xfffffff0, 5, true},          // across the wrap
		{0, 1 << 31, false},            // antipodal: incomparable
		{1 << 31, 0, false},            // antipodal, reversed
		{100, 100 + (1<<31 - 1), true}, // just inside the window
	}
	for _, c := range cases {
		if got := SerialLess(c.a, c.b); got != c.want {
			t.Errorf("SerialLess(%#x, %#x) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestSerialProperties(t *testing.T) {
	// Irreflexive and antisymmetric (except antipodes, where both false).
	f := func(a, b Serial) bool {
		l1, l2 := SerialLess(a, b), SerialLess(b, a)
		if a == b {
			return !l1 && !l2
		}
		if uint32(b)-uint32(a) == 1<<31 {
			return !l1 && !l2
		}
		return l1 != l2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
	// Advancing by a small n always moves forward.
	g := func(s Serial, n8 uint8) bool {
		n := uint32(n8)
		if n == 0 {
			return SerialAdvance(s, 0) == s
		}
		return SerialNewer(SerialAdvance(s, n), s)
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// TestNotifyOrderAcrossSerialWrap pins notify order where serials cross
// 2^32, where a raw > inverts. The server orders no serials: a writer woken
// by publishes notifies the one published last, so three publishes across
// the wrap coalesce to one notify for the newest, and a SetSession with a
// router connected is a publish like any other, notified under the new
// session. The client's stale-notify drop orders by RFC 1982.
func TestNotifyOrderAcrossSerialWrap(t *testing.T) {
	t.Run("server", func(t *testing.T) {
		needStartFloor(t)
		srv := NewServer(testVRPs())
		waitBounded(t, "SetSession before the router connects", func() error { srv.SetSession(0x1982, 0xfffffffe); return nil })
		router, cache := net.Pipe()
		handled := make(chan struct{})
		go func() {
			defer close(handled)
			srv.handle(cache)
		}()
		defer waitBounded(t, "closing the cache", func() error {
			srv.Close()
			router.Close()
			<-handled
			return nil
		})

		// Hold the writer: it streams the Reset Query's answer into a pipe,
		// and a write there returns only once the router has read all of it.
		if err := WritePDU(router, Version1, &ResetQuery{}); err != nil {
			t.Fatal(err)
		}
		if pdu, _, err := ReadPDU(router); err != nil {
			t.Fatal(err)
		} else if _, ok := pdu.(*CacheResponse); !ok {
			t.Fatalf("got %T, want Cache Response", pdu)
		}
		// Three publishes cross the wrap while the writer is held: 0xffffffff,
		// 0, 1.
		for i := 0; i < 3; i++ {
			waitBounded(t, fmt.Sprintf("publish %d", i), func() error {
				srv.ApplyDelta([]rpki.VRP{{Prefix: mp("192.0.2.0/24"), MaxLength: uint8(24 + i), AS: 65000}}, nil)
				return nil
			})
		}
		for {
			pdu, _, err := ReadPDU(router)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := pdu.(*EndOfData); ok {
				break
			}
		}
		pdu, _, err := ReadPDU(router)
		if err != nil {
			t.Fatal(err)
		}
		if n, ok := pdu.(*SerialNotify); !ok || n.Serial != 1 {
			t.Fatalf("got %T %+v, want the Serial Notify for serial 1, the newest", pdu, pdu)
		}
		router.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
		if pdu, _, err := ReadPDU(router); err == nil {
			t.Errorf("a second PDU %T %+v after the coalesced notify", pdu, pdu)
		}
		router.SetReadDeadline(time.Time{})

		waitBounded(t, "SetSession", func() error { srv.SetSession(0x1983, 7); return nil })
		pdu, _, err = ReadPDU(router)
		if err != nil {
			t.Fatal(err)
		}
		if n, ok := pdu.(*SerialNotify); !ok || n.SessionID != 0x1983 || n.Serial != 7 {
			t.Fatalf("after SetSession got %T %+v, want the Serial Notify for session 0x1983, serial 7", pdu, pdu)
		}
	})

	t.Run("client", func(t *testing.T) {
		router, cache := net.Pipe()
		defer cache.Close()
		c := NewClient(router)
		defer c.Close()
		script := make(chan error, 1)
		go func() {
			script <- func() error {
				if err := WritePDU(cache, Version1, &SerialNotify{SessionID: 7, Serial: 0xffffffff}); err != nil {
					return err
				}
				if err := expectQuery(cache, -1, 0); err != nil {
					return err
				}
				return answer(cache, 7, 1, 7200)
			}()
		}()
		waitFor(t, func() bool { return len(c.Notify()) == 1 })
		if _, err := c.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := <-script; err != nil {
			t.Fatal(err)
		}
		select {
		case s := <-c.Notify():
			t.Errorf("the notify for %#x is still pending after a sync to serial %d, which is newer", s, c.Serial())
		default:
		}
	})
}

// waitFor polls cond until it holds, failing the test after 5 s, or after
// the share of its time left that waitBounded would give the wait.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(waitBound(t, 5*time.Second))
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}
