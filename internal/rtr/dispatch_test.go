package rtr

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/rpki"
)

// TestIdleErrorReportFailsClient pins the dispatch loop's idle-state
// handling of an Error Report arriving between syncs: RFC 8210 §8 makes it
// fatal to the session, so the client must surface it as the sticky error,
// close the connection, and fail every subsequent call fast. The old
// blocking-reader design would instead have misparsed it as an unexpected
// PDU inside the next exchange.
func TestIdleErrorReportFailsClient(t *testing.T) {
	cliConn, srvConn := net.Pipe()
	c := NewClient(cliConn)
	defer c.Close()

	// Unsolicited Error Report while no exchange is in flight (net.Pipe
	// writes rendezvous with the dispatch loop's read, hence the goroutine).
	go WritePDU(srvConn, Version1, &ErrorReport{Code: ErrInternalError, Text: "cache going down"})

	waitBounded(t, "the dispatch loop ending on the idle Error Report", func() error { <-c.Done(); return nil })
	var er *ErrorReport
	if !errors.As(c.Err(), &er) || er.Code != ErrInternalError {
		t.Fatalf("sticky error = %v, want the internal-error Error Report", c.Err())
	}
	// Failed client: every call reports the same sticky error without
	// touching the (closed) connection.
	waitBounded(t, "Sync and WaitNotify after failure", func() error {
		if _, err := c.Sync(); !errors.As(err, &er) {
			return fmt.Errorf("Sync after failure = %v, want the Error Report", err)
		}
		if _, err := c.WaitNotify(); !errors.As(err, &er) {
			return fmt.Errorf("WaitNotify after failure = %v, want the Error Report", err)
		}
		return nil
	})
	// The client closed its side as §8 requires: the cache sees EOF.
	srvConn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, _, err := ReadPDU(srvConn); err == nil {
		t.Fatal("client did not close the connection after the idle Error Report")
	}
}

// TestSubscribeMultipleConsumers pins the Subscribe contract: every
// registered consumer sees every applied non-empty delta exactly once, in
// commit order and registration order, before the Sync that produced it
// returns — consumer state is plain fields, read right after Sync. A second
// consumer keeps simple counters, the cmd/rtrclient pattern.
func TestSubscribeMultipleConsumers(t *testing.T) {
	set := testVRPs()
	srv := NewServer(set)
	addr, stop := startServer(t, srv)
	defer waitBounded(t, "stopping the cache", func() error { stop(); return nil })

	c := dialBounded(t, addr)
	defer c.Close()

	mirror := map[rpki.VRP]struct{}{}
	var order []string
	c.Subscribe(func(ann, wd []rpki.VRP) {
		order = append(order, "mirror")
		replayDelta(t, mirror, ann, wd)
	})
	var announced, withdrawn int
	c.Subscribe(func(ann, wd []rpki.VRP) {
		order = append(order, "counter")
		announced += len(ann)
		withdrawn += len(wd)
	})
	check := func(deliveries int) {
		t.Helper()
		if len(order) != 2*deliveries {
			t.Fatalf("%d consumer calls, want %d", len(order), 2*deliveries)
		}
		for i, who := range order {
			if want := []string{"mirror", "counter"}[i%2]; who != want {
				t.Fatalf("consumer call %d went to %s, want %s (registration order)", i, who, want)
			}
		}
		if got := mirrorSet(mirror); !got.Equal(c.Set()) {
			t.Fatalf("subscriber mirror %v != table %v", got.VRPs(), c.Set().VRPs())
		}
	}

	syncBounded(t, c, "the initial full sync")
	check(1)
	if announced != set.Len() || withdrawn != 0 {
		t.Fatalf("counters after full sync: +%d -%d, want +%d -0", announced, withdrawn, set.Len())
	}

	// Incremental update: one VRP dropped, one added; every consumer sees
	// exactly one more delta.
	next := rpki.NewSet(append(set.VRPs()[1:],
		rpki.VRP{Prefix: mp("10.0.0.0/8"), MaxLength: 8, AS: 7}))
	waitBounded(t, "UpdateSet", func() error { srv.UpdateSet(next); return nil })
	notifyBounded(t, c, "the update's notify")
	syncBounded(t, c, "the incremental sync")
	check(2)
	if announced != set.Len()+1 || withdrawn != 1 {
		t.Fatalf("counters after incremental sync: +%d -%d, want +%d -1", announced, withdrawn, set.Len()+1)
	}

	// A no-op incremental sync delivers nothing.
	syncBounded(t, c, "the no-op sync")
	check(2)
}
