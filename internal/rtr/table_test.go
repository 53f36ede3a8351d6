package rtr

import (
	"fmt"
	"math/rand"
	"net"
	"testing"

	"repro/internal/rov"
	"repro/internal/rpki"
)

// This file pins the client's index-backed session table: what a resumed
// session may and may not apply onto it, its set semantics under sloppy
// caches, and its agreement with the cache across reconnects.

// TestClientSessionChangeWithoutCacheReset pins the resumption guard in the
// exchange state machine: a restarted cache should answer a carried Serial
// Query with Cache Reset, but one that instead replies with its *new*
// session ID and a delta must not have that delta applied onto the carried
// table (RFC 8210 §5.5 — a session change invalidates all held data). The
// client consumes the foreign update to keep the stream framed, resolves
// the exchange as a cache reset, and Sync falls back to a full Reset Query.
func TestClientSessionChangeWithoutCacheReset(t *testing.T) {
	v1 := rpki.VRP{Prefix: mp("10.0.0.0/8"), MaxLength: 8, AS: 1}
	v2 := rpki.VRP{Prefix: mp("192.0.2.0/24"), MaxLength: 24, AS: 2}
	v3 := rpki.VRP{Prefix: mp("198.51.100.0/24"), MaxLength: 24, AS: 3}
	const oldSess, newSess = 0xaaaa, 0xbbbb

	cli, srv := net.Pipe()
	defer srv.Close()
	carried := rov.NewTable([]rpki.VRP{v1})
	c := NewClientResume(cli, carried, &SessionState{SessionID: oldSess, Serial: 7})
	defer c.Close()

	scriptErr := make(chan error, 1)
	go func() {
		scriptErr <- func() error {
			if err := expectQuery(srv, oldSess, 7); err != nil {
				return err
			}
			// Misbehaving restart: a delta under the new session instead of
			// Cache Reset. The client must swallow it whole.
			if err := WritePDU(srv, Version1, &CacheResponse{SessionID: newSess}); err != nil {
				return err
			}
			if err := WritePDU(srv, Version1, &Prefix{Flags: FlagAnnounce, VRP: v2}); err != nil {
				return err
			}
			if err := WritePDU(srv, Version1, &EndOfData{SessionID: newSess, Serial: 3}); err != nil {
				return err
			}
			// The fallback full resync under the new session.
			if err := expectQuery(srv, -1, 0); err != nil {
				return err
			}
			return answer(srv, newSess, 3, 3600, v2, v3)
		}()
	}()

	serial, err := c.Sync()
	if err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := <-scriptErr; err != nil {
		t.Fatalf("scripted cache: %v", err)
	}
	if serial != 3 || c.SessionID() != newSess {
		t.Fatalf("synced to serial %d session %#x, want 3/%#x", serial, c.SessionID(), newSess)
	}
	// The table is the full resync — the foreign delta was not merged onto
	// the carried table (v1 must be gone, and only one full sync ran) — and
	// it is the carried index itself, not a copy.
	if want := rpki.NewSet([]rpki.VRP{v2, v3}); !c.Set().Equal(want) || !liveTable(carried).Equal(want) {
		t.Fatalf("table = %v (carried index %v), want {v2, v3}", c.Set().VRPs(), liveTable(carried).VRPs())
	}
	if c.FullSyncs() != 1 {
		t.Fatalf("FullSyncs = %d, want 1", c.FullSyncs())
	}
}

// TestSloppyResponsesKeepTableAndDeltaExact feeds the client responses a
// careful cache would not send — the same VRP announced twice, a VRP
// announced and then withdrawn, an announce of a VRP it holds, a withdrawal
// of one it does not — as full and as incremental updates. The index-backed
// table must keep set semantics (withdrawals win, repeats count once), and
// the Subscribe delta must be the exact net change, with nothing delivered
// when nothing changed.
func TestSloppyResponsesKeepTableAndDeltaExact(t *testing.T) {
	v1 := rpki.VRP{Prefix: mp("10.0.0.0/8"), MaxLength: 8, AS: 1}
	v2 := rpki.VRP{Prefix: mp("192.0.2.0/24"), MaxLength: 24, AS: 2}
	v2b := rpki.VRP{Prefix: mp("192.0.2.0/24"), MaxLength: 24, AS: 22} // same prefix as v2
	v3 := rpki.VRP{Prefix: mp("2001:db8::/32"), MaxLength: 48, AS: 3}
	ann := func(v rpki.VRP) *Prefix { return &Prefix{Flags: FlagAnnounce, VRP: v} }
	wdr := func(v rpki.VRP) *Prefix { return &Prefix{VRP: v} }
	const session = 0x5107

	cases := []struct {
		name     string
		full     bool // a Reset Query response replacing {v1}; else a Serial Query response onto it
		pdus     []*Prefix
		want     []rpki.VRP // the table afterwards
		ann, wdn []rpki.VRP // the one delta delivered; both empty: none
	}{
		{"full: repeated announce", true, []*Prefix{ann(v2), ann(v3), ann(v2), ann(v2b)},
			[]rpki.VRP{v2, v2b, v3}, []rpki.VRP{v2, v2b, v3}, []rpki.VRP{v1}},
		{"full: announce then withdraw", true, []*Prefix{ann(v1), ann(v2), wdr(v2)},
			[]rpki.VRP{v1}, nil, nil},
		{"full: withdraw then announce", true, []*Prefix{wdr(v3), ann(v1), ann(v3)},
			[]rpki.VRP{v1}, nil, nil},
		{"incremental: repeated announce", false, []*Prefix{ann(v2), ann(v2b), ann(v2)},
			[]rpki.VRP{v1, v2, v2b}, []rpki.VRP{v2, v2b}, nil},
		{"incremental: announce then withdraw", false, []*Prefix{ann(v3), wdr(v3)},
			[]rpki.VRP{v1}, nil, nil},
		{"incremental: no-op announce and withdraw", false, []*Prefix{ann(v1), wdr(v2)},
			[]rpki.VRP{v1}, nil, nil},
		{"incremental: withdraw held, announce new", false, []*Prefix{wdr(v1), ann(v3), wdr(v1)},
			[]rpki.VRP{v3}, []rpki.VRP{v3}, []rpki.VRP{v1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cli, srv := net.Pipe()
			defer srv.Close()
			c := NewClientResume(cli, rov.NewTable([]rpki.VRP{v1}), &SessionState{SessionID: session, Serial: 7})
			defer c.Close()
			var got []recorded
			c.Subscribe(func(a, w []rpki.VRP) { got = append(got, recorded{ann: a, wd: w}) })

			scriptErr := make(chan error, 1)
			go func() {
				scriptErr <- func() error {
					if _, _, err := ReadPDU(srv); err != nil {
						return err
					}
					if err := WritePDU(srv, Version1, &CacheResponse{SessionID: session}); err != nil {
						return err
					}
					for _, p := range tc.pdus {
						if err := WritePDU(srv, Version1, p); err != nil {
							return err
						}
					}
					return WritePDU(srv, Version1, &EndOfData{SessionID: session, Serial: 8})
				}()
			}()
			var err error
			if tc.full {
				err = c.Reset()
			} else {
				_, err = c.Sync()
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := <-scriptErr; err != nil {
				t.Fatalf("scripted cache: %v", err)
			}

			if want := rpki.NewSet(tc.want); !c.Set().Equal(want) || c.Len() != want.Len() {
				t.Fatalf("table = %v (Len %d), want %v", c.Set().VRPs(), c.Len(), want.VRPs())
			}
			if len(tc.ann) == 0 && len(tc.wdn) == 0 {
				if len(got) != 0 {
					t.Fatalf("delivered %+v for an update that changed nothing", got)
				}
				return
			}
			if len(got) != 1 || !sameVRPs(got[0].ann, tc.ann) || !sameVRPs(got[0].wd, tc.wdn) {
				t.Fatalf("deliveries = %+v, want one: +%v -%v", got, tc.ann, tc.wdn)
			}
		})
	}
}

// TestRandomCacheHistoryAcrossReconnects runs a seeded random history on a
// real server — ApplyDelta, UpdateSet, and SetSession (a restart: new
// session, old serials unanswerable) — against a router that keeps forcing
// reconnects, each new client resuming on the carried table and session.
// After every step the client's table must equal the cache's, and the
// Subscribe deltas, concatenated over all the clients, must replay to it
// without ever announcing a held VRP or withdrawing an absent one.
func TestRandomCacheHistoryAcrossReconnects(t *testing.T) {
	rng := rand.New(rand.NewSource(20170601))
	pool := make([]rpki.VRP, 64)
	for i := range pool {
		pool[i] = rpki.VRP{Prefix: mp("10.0.0.0/8"), MaxLength: uint8(8 + i%16), AS: rpki.ASN(64500 + i/16)}
		if i%2 == 1 {
			pool[i].Prefix = mp("2001:db8::/32")
			pool[i].MaxLength += 24
		}
	}
	pick := func(n int) []rpki.VRP {
		out := make([]rpki.VRP, 0, n)
		for i := 0; i < n; i++ {
			out = append(out, pool[rng.Intn(len(pool))])
		}
		return out
	}

	want := map[rpki.VRP]struct{}{} // the cache's table, kept by hand
	srv := NewServer(rpki.NewSet(nil))
	addr, stop := startServer(t, srv)
	defer waitBounded(t, "stopping the cache", func() error { stop(); return nil })

	table := rov.NewTable(nil)
	replay := map[rpki.VRP]struct{}{}
	var c *Client
	var st *SessionState
	reconnects, fullSyncs := 0, 0
	connect := func() {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		c = NewClientResume(conn, table, st)
		c.Subscribe(func(a, w []rpki.VRP) { replayDelta(t, replay, a, w) })
	}
	connect()
	defer func() { c.Close() }()

	for step := 0; step < 300; step++ {
		switch op := rng.Intn(10); {
		case op < 6:
			a, w := pick(rng.Intn(4)), pick(rng.Intn(4))
			waitBounded(t, fmt.Sprintf("step %d: ApplyDelta", step), func() error {
				srv.ApplyDelta(a, w) // announces first, then withdrawals
				return nil
			})
			for _, v := range a {
				want[v] = struct{}{}
			}
			for _, v := range w {
				delete(want, v)
			}
		case op < 9:
			next := rpki.NewSet(pick(rng.Intn(24)))
			waitBounded(t, fmt.Sprintf("step %d: UpdateSet", step), func() error { srv.UpdateSet(next); return nil })
			want = vrpSet(next.VRPs())
		default:
			id, serial := uint16(0x4000+step), Serial(rng.Uint32())
			waitBounded(t, fmt.Sprintf("step %d: SetSession", step), func() error { srv.SetSession(id, serial); return nil })
		}
		if rng.Intn(4) == 0 {
			st = c.SessionState()
			c.Close()
			waitBounded(t, fmt.Sprintf("step %d: the client's dispatch loop ending", step), func() error { <-c.Done(); return nil })
			fullSyncs += c.FullSyncs()
			reconnects++
			connect()
		}
		serial := syncBounded(t, c, fmt.Sprintf("step %d: Sync", step))
		// The session is published before Sync returns, and the next Serial
		// Query is built from it.
		if serial != srv.Serial() || c.Serial() != serial {
			t.Fatalf("step %d: Sync returned serial %d, Serial() reads %d, the cache is at %d", step, serial, c.Serial(), srv.Serial())
		}
		if got := c.Set(); !got.Equal(mirrorSet(want)) {
			t.Fatalf("step %d: client table %v != cache table %v", step, got.VRPs(), mirrorSet(want).VRPs())
		}
		if !mirrorSet(replay).Equal(mirrorSet(want)) {
			t.Fatalf("step %d: replayed deltas %v != cache table %v", step, mirrorSet(replay).VRPs(), mirrorSet(want).VRPs())
		}
	}
	if fullSyncs += c.FullSyncs(); reconnects < 10 || fullSyncs < 2 || fullSyncs >= reconnects {
		t.Fatalf("history too tame: %d reconnects, %d full syncs — want both resumes and reset fallbacks", reconnects, fullSyncs)
	}
}
