package rtr

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/prefix"
	"repro/internal/rov"
	"repro/internal/rpki"
)

// lineage returns the slab lineage of ix's IPv4 trie. rov keeps it
// unexported; these tests read it by reflection because what they pin is a
// diff between snapshots that do not share one.
func lineage(ix *rov.Index) uint64 {
	return reflect.ValueOf(ix).Elem().FieldByName("fams").Index(0).FieldByName("lineage").Uint()
}

// compactionTable returns a 300-VRP table in 10.0.0.0/8, big enough for its
// garbage to cross the compaction floors, and a generator of deltas outside it:
// eight scattered /24s in 100.64.0.0/10, each the length of a full path.
func compactionTable(rng *rand.Rand) (*rpki.Set, func() []rpki.VRP) {
	var vrps []rpki.VRP
	for len(vrps) < 300 {
		l := uint8(16 + rng.Intn(9))
		p, err := prefix.Make(prefix.IPv4, uint64(10<<24|rng.Intn(1<<24))<<32, 0, l)
		if err != nil {
			panic(err)
		}
		vrps = append(vrps, rpki.VRP{Prefix: p, MaxLength: l, AS: rpki.ASN(1 + rng.Intn(50))})
	}
	scattered := func() []rpki.VRP {
		var out []rpki.VRP
		for len(out) < 8 {
			p, err := prefix.Make(prefix.IPv4, uint64(100<<24|64<<16|rng.Intn(1<<14)<<8)<<32, 0, 24)
			if err != nil {
				panic(err)
			}
			if v := (rpki.VRP{Prefix: p, MaxLength: 24, AS: 64500}); !slices.Contains(out, v) {
				out = append(out, v)
			}
		}
		return out
	}
	return rpki.NewSet(vrps), scattered
}

// TestSerialQueryAcrossCompaction pins a Serial Query whose two snapshots lie
// on either side of a compaction of the cache's table, many serials apart: the
// rebuild started a new arena lineage, so the answer is the full dual walk, not
// the structural one — and must still be exactly the set difference, which the
// router's table then equals. Each wait is bounded (waitBounded): a deadlock
// in the cache or the client fails the test, naming the wait.
func TestSerialQueryAcrossCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	set, scattered := compactionTable(rng)
	srv := NewServer(set)
	srv.keepDeltas = 1 << 16 // the router's serial stays answerable
	addr, stop := startServer(t, srv)
	defer waitBounded(t, "stopping the cache", func() error { stop(); return nil })

	var c *Client
	waitBounded(t, "dialing the cache", func() (err error) { c, err = Dial(addr); return err })
	defer c.Close()
	waitBounded(t, "the router's first sync", func() error { _, err := c.Sync(); return err })
	held := c.Serial()
	from := srv.pub.Load().lookup(held)

	// A net change for the answer to carry, then churn until the table has
	// compacted and taken a delta since: the ring's current snapshot is then on
	// another lineage than the router's.
	mirror := map[rpki.VRP]struct{}{}
	for _, v := range set.VRPs() {
		mirror[v] = struct{}{}
	}
	gone, added := set.VRPs()[:20], scattered()
	waitBounded(t, "publishing the net change", func() error { srv.ApplyDelta(added, gone); return nil })
	replayDelta(t, mirror, added, gone)
	waitBounded(t, "churning the cache until its table compacts", func() error {
		for i := 0; lineage(srv.pub.Load().current()) == lineage(from); i++ {
			if i == 10000 {
				return errors.New("churn never compacted the cache's table")
			}
			// A churn VRP the table already holds (one of added) would be
			// withdrawn with the rest: leave those out.
			churn := slices.DeleteFunc(scattered(), func(v rpki.VRP) bool { _, ok := mirror[v]; return ok })
			srv.ApplyDelta(churn, nil)
			srv.ApplyDelta(nil, churn)
		}
		return nil
	})

	want := mirrorSet(mirror)
	pdus := serialQueryResponse(t, addr, srv.SessionID(), held)
	if _, ok := pdus[0].(*CacheResponse); !ok {
		t.Fatalf("first PDU is %T, want Cache Response", pdus[0])
	}
	if eod, ok := pdus[len(pdus)-1].(*EndOfData); !ok || eod.Serial != srv.Serial() {
		t.Fatalf("terminator %T %+v, want End of Data at serial %d", pdus[len(pdus)-1], pdus[len(pdus)-1], srv.Serial())
	}
	got := map[Prefix]bool{}
	for _, p := range pdus[1 : len(pdus)-1] {
		got[*p.(*Prefix)] = true
	}
	wantDelta := diffSets(set, want)
	if len(got) != len(wantDelta) || len(pdus) != len(wantDelta)+2 {
		t.Fatalf("the answer holds %d Prefix PDUs (%d distinct), the set difference %d", len(pdus)-2, len(got), len(wantDelta))
	}
	for _, p := range wantDelta {
		if !got[p] {
			t.Fatalf("the answer lacks %+v", p)
		}
	}
	waitBounded(t, "the router's Serial Query", func() error { _, err := c.Sync(); return err })
	if !c.Set().Equal(want) {
		t.Fatalf("after the Serial Query the router holds %d VRPs, the cache %d", c.Len(), want.Len())
	}
}

// TestMultiSupervisorAcrossSessionCompaction is the subscriber's side of the
// same edge: the upstream's session table compacts under a stream of deltas,
// and the delivery that diffs the last snapshot delivered before the
// compaction against the first one after it — on two arena lineages, and
// answered from the delta the later one carries — must be as exact as every
// other: each delivery announces only what the subscriber lacks and withdraws
// only what it holds, and no reset is taken.
func TestMultiSupervisorAcrossSessionCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	set, scattered := compactionTable(rng)
	srv := NewServer(set)
	addr, stop := startServer(t, srv)
	defer waitBounded(t, "stopping the cache", func() error { stop(); return nil })

	m := NewMultiSupervisor(Upstream{Name: addr, Dial: func() (net.Conn, error) { return net.Dial("tcp", addr) }})
	m.BackoffMin, m.BackoffMax = 2*time.Millisecond, 20*time.Millisecond
	var mu sync.Mutex
	mirror := map[rpki.VRP]struct{}{}
	// base is the lineage of the snapshot the latest delivery diffs from,
	// read on Run's goroutine, which owns it: the table delivered before it.
	var base uint64
	m.Subscribe(func(announced, withdrawn []rpki.VRP) {
		mu.Lock()
		defer mu.Unlock()
		replayDelta(t, mirror, announced, withdrawn)
		base = lineage(m.delivered)
	})
	m.OnReset(func([]rpki.VRP) { t.Error("a delivery went through OnReset") })
	runErr := make(chan error, 1)
	go func() { runErr <- m.Run() }()
	defer waitBounded(t, "stopping the supervisor", func() error {
		m.Stop()
		if err := <-runErr; err != nil {
			return fmt.Errorf("Run returned %v after Stop", err)
		}
		return nil
	})
	holds := func(want *rpki.Set) func() bool {
		return func() bool {
			mu.Lock()
			defer mu.Unlock()
			return mirrorSet(mirror).Equal(want)
		}
	}
	baseLineage := func() uint64 {
		mu.Lock()
		defer mu.Unlock()
		return base
	}
	waitFor(t, holds(set))

	// Each delta is waited out, so the session table takes every one of them
	// (the follower would otherwise coalesce an announce and its withdraw into
	// nothing), until a delivery has crossed the compaction. first is the
	// lineage of the full sync's snapshot, the base of the first delta; a
	// base on another lineage is the table a crossing delivered, so that
	// delivery has returned and been checked.
	var first uint64
	for i := 0; i == 0 || baseLineage() == first; i++ {
		if i == 2000 {
			t.Fatal("the session table never compacted")
		}
		churn := scattered()
		waitBounded(t, fmt.Sprintf("announce %d", i), func() error { srv.ApplyDelta(churn, nil); return nil })
		waitFor(t, holds(addVRPs(set, churn...)))
		if i == 0 {
			first = baseLineage()
		}
		waitBounded(t, fmt.Sprintf("withdrawal %d", i), func() error { srv.ApplyDelta(nil, churn); return nil })
		waitFor(t, holds(set))
	}
	if st := m.Stats(); st.Rebuilds != 0 {
		t.Fatalf("a delivery was a rebuild: %+v", st)
	}
}
