package rov

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"repro/internal/prefix"
	"repro/internal/rpki"
)

// fuzzOp decodes one 8-byte fuzz op, [tag, a0, a1, a2, a3, len, mlDelta, as]:
// tag bit 3 selects the family, the address bytes seed the prefix (IPv4 in the
// top 32 bits; IPv6 reuses them byte-swapped in the second quad so v6 paths
// diverge), len and mlDelta are clamped to the family's range (IPv6 to the
// top quad), and as is folded into a small origin space so matches, covers
// and misses all occur. The VRP's prefix and origin double as a query route.
func fuzzOp(t *testing.T, op []byte) rpki.VRP {
	fam, famMax := prefix.IPv4, uint8(32)
	if op[0]&8 != 0 {
		fam, famMax = prefix.IPv6, 64
	}
	l := op[5] % (famMax + 1)
	hi := uint64(binary.BigEndian.Uint32(op[1:5])) << 32
	if fam == prefix.IPv6 {
		hi |= uint64(op[4])<<24 | uint64(op[3])<<16 | uint64(op[2])<<8 | uint64(op[1])
	}
	p, err := prefix.Make(fam, hi, 0, l)
	if err != nil {
		t.Fatal(err)
	}
	return rpki.VRP{Prefix: p, MaxLength: l + op[6]%(famMax-l+1), AS: rpki.ASN(op[7]) % 8}
}

// FuzzIndex drives the arena Index and the LiveIndex with a fuzzer-chosen
// op stream — announce, withdraw, query — and checks both against the
// linear Reference over the resulting table. Each op is 8 bytes (fuzzOp);
// tag%3 selects the op.
//
// Tag bit 4 batches: an announce or withdraw carrying it joins an open delta
// instead of being applied alone, and the next op without it — or the end of
// the input — applies the delta as one Apply. A batch into an empty table that
// withdraws nothing is a first full sync, built; any other is path-copied,
// whatever its size. A batch may announce and withdraw one VRP (withdraw
// wins), repeat a VRP, or net to nothing.
//
// A byte left over after the last whole op orders a second build of the final
// table: every announce that made it there, repeats kept, as given (0 or no
// byte), in the trie's pre-order (1), in that order reversed (2), or in it with
// the two families interleaved (3). Whatever the order, the build must be the
// root-descent insert loop's cell for cell and hold the table NewIndex does.
func FuzzIndex(f *testing.F) {
	// The RFC 6811 / §2 running example: ROA (168.122.0.0/16, AS 111), the
	// legitimate announcement, the subprefix hijack by AS 666, the owner's
	// own invalid de-aggregation, and unrelated space.
	f.Add([]byte{
		0, 168, 122, 0, 0, 16, 0, 111, // announce 168.122.0.0/16-16 => AS111
		2, 168, 122, 0, 0, 16, 0, 111, // query exact, right origin: Valid
		2, 168, 122, 0, 0, 24, 0, 154, // query subprefix, wrong origin: Invalid
		2, 168, 122, 225, 0, 24, 0, 111, // owner's /24 de-aggregation: Invalid
		2, 192, 0, 2, 0, 24, 0, 154, // unrelated space: NotFound
	})
	// A maxLength ROA plus its forged-origin subprefix hijack (§4), then a
	// withdrawal of the ROA.
	f.Add([]byte{
		0, 168, 122, 0, 0, 16, 8, 111, // announce 168.122.0.0/16-24 => AS111
		2, 168, 122, 0, 0, 24, 0, 111, // forged-origin subprefix route: Valid
		1, 168, 122, 0, 0, 16, 8, 111, // withdraw the ROA
		2, 168, 122, 0, 0, 16, 0, 111, // now NotFound
	})
	// IPv6 ops (tag bit 3 set).
	f.Add([]byte{
		8, 32, 1, 13, 184, 32, 16, 200, // announce a 2001:db8-ish /32-48
		10, 32, 1, 13, 184, 48, 0, 200, // query a /48 under it
		9, 32, 1, 13, 184, 32, 16, 200, // withdraw it
	})
	// Batched ops (tag bit 4 set): four VRPs into the empty table as one delta
	// that also announces and withdraws one VRP, so it is path-copied, not
	// built, and repeats another; then a one-VRP delta, then a batch that
	// nets to nothing, then one that empties the table.
	// (18 = announce, 16 = withdraw, both batched and IPv4.)
	f.Add([]byte{
		18, 10, 0, 0, 0, 8, 0, 1, 18, 10, 1, 0, 0, 16, 0, 1, 18, 10, 2, 0, 0, 16, 0, 2,
		18, 10, 3, 0, 0, 16, 0, 3, 18, 10, 4, 0, 0, 16, 0, 4, 18, 10, 1, 0, 0, 16, 0, 1,
		16, 10, 4, 0, 0, 16, 0, 4, // withdraw 10.4/16 in the batch that announced it
		0, 10, 9, 0, 0, 16, 0, 5, // flushes the batch, then a lone announce
		18, 10, 0, 0, 0, 8, 0, 1, 18, 10, 1, 0, 0, 16, 0, 1, 16, 192, 0, 2, 0, 24, 0, 7, // two re-announces + an absent withdraw
		2, 10, 1, 2, 0, 24, 0, 1, // query (flushes)
		16, 10, 0, 0, 0, 8, 0, 1, 16, 10, 1, 0, 0, 16, 0, 1, 16, 10, 2, 0, 0, 16, 0, 2,
		16, 10, 3, 0, 0, 16, 0, 3, 16, 10, 9, 0, 0, 16, 0, 5, // left open: flushed at the end
	})
	// Both families (9 = announce, IPv6), nested and repeated prefixes, a /0
	// in each, given out of order: one seed per ordering byte.
	for order := byte(0); order < 4; order++ {
		f.Add([]byte{
			0, 10, 1, 0, 0, 16, 0, 1, 9, 32, 1, 13, 184, 48, 0, 2, 0, 10, 0, 0, 0, 8, 0, 1,
			9, 32, 1, 13, 184, 32, 16, 2, 0, 10, 1, 0, 0, 16, 8, 3, 0, 0, 0, 0, 0, 0, 0, 4,
			0, 10, 1, 0, 0, 16, 0, 1, 9, 0, 0, 0, 0, 0, 0, 4, 0, 9, 255, 255, 0, 24, 0, 5,
			2, 10, 1, 2, 0, 24, 0, 1,
			order,
		})
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		state := map[rpki.VRP]struct{}{}
		live := NewLiveIndex(rpki.NewSet(nil))
		var queries []Route
		var given []rpki.VRP   // every announce, in stream order
		var ann, wd []rpki.VRP // the open batch
		flush := func() {
			if len(ann)+len(wd) == 0 {
				return
			}
			live.Apply(ann, wd)
			for _, v := range ann {
				state[v] = struct{}{}
			}
			for _, v := range wd {
				delete(state, v)
			}
			ann, wd = ann[:0], wd[:0]
		}
		for len(data) >= 8 {
			op := data[:8]
			data = data[8:]
			tag, v := op[0], fuzzOp(t, op)
			if tag%3 == 2 || tag&16 == 0 {
				flush()
			}
			if tag%3 == 2 {
				queries = append(queries, Route{Prefix: v.Prefix, Origin: v.AS})
				continue
			}
			if tag%3 == 0 {
				ann, given = append(ann, v), append(given, v)
			} else {
				wd = append(wd, v)
			}
			if tag&16 == 0 {
				flush()
			}
		}
		flush()
		given = slices.DeleteFunc(given, func(v rpki.VRP) bool { _, ok := state[v]; return !ok })
		if len(data) > 0 {
			given = buildOrders(given, 0)[[]string{"given", "preorder", "reversed", "interleaved"}[data[0]%4]]
		}
		vrps := make([]rpki.VRP, 0, len(state))
		for v := range state {
			vrps = append(vrps, v)
			// Probe every table prefix with a right and a wrong origin too.
			queries = append(queries,
				Route{Prefix: v.Prefix, Origin: v.AS},
				Route{Prefix: v.Prefix, Origin: v.AS + 1})
		}
		set := rpki.NewSet(vrps)
		ix, cx, ref := NewIndex(set), NewCompactIndex(set), NewReference(set)
		if ix.Len() != set.Len() || cx.Len() != set.Len() || live.Len() != set.Len() {
			t.Fatalf("index %d / compact %d / live %d / set %d VRPs", ix.Len(), cx.Len(), live.Len(), set.Len())
		}
		ordered := newIndexFromVRPs(given, nil)
		checkSameSlabs(t, "the ordered build", ordered, insertLoopIndex(given))
		checkSameTable(t, "the ordered build", ordered, ix)
		for _, q := range queries {
			want := ref.Validate(q.Prefix, q.Origin)
			if got := ix.Validate(q.Prefix, q.Origin); got != want {
				t.Fatalf("Index.Validate(%s, %v) = %v, reference %v", q.Prefix, q.Origin, got, want)
			}
			if got := cx.Validate(q.Prefix, q.Origin); got != want {
				t.Fatalf("CompactIndex.Validate(%s, %v) = %v, reference %v", q.Prefix, q.Origin, got, want)
			}
			if got := live.Validate(q.Prefix, q.Origin); got != want {
				t.Fatalf("LiveIndex.Validate(%s, %v) = %v, reference %v", q.Prefix, q.Origin, got, want)
			}
		}
	})
}

// pathCopy applies one delta to tab by path copying whatever the table's
// size, and lets no compaction collect what that leaves behind.
func pathCopy(tab *Table, announce, withdraw []rpki.VRP) {
	tab.mu.Lock()
	defer tab.mu.Unlock()
	tab.compacting = true // as if one were in flight: none starts
	tab.applyDelta(tab.cur.Load(), announce, withdraw)
}

// FuzzCompactIndex aims the fuzzer at the compact build itself: the same op
// encoding as FuzzIndex, but after every announce/withdraw the compact index
// is rebuilt from the current table and cross-examined against the arena
// Index — the per-delta differential — and the final table additionally goes
// through CompactFromIndex twice — from the fresh Index and from the snapshot
// of a Table every delta was path-copied into, garbage and all — the
// Reference, and an exact AppendVRPs comparison. Query ops probe both
// families at fuzzer-chosen lengths, including sub-stride ones.
func FuzzCompactIndex(f *testing.F) {
	f.Add([]byte{
		0, 168, 122, 0, 0, 16, 8, 111, // announce 168.122.0.0/16-24 => AS111
		2, 168, 122, 0, 0, 24, 0, 111, // covered subprefix, right origin
		0, 168, 122, 0, 0, 8, 0, 42, // short ancestor at another origin
		2, 168, 122, 0, 0, 4, 0, 42, // query shorter than every table prefix
		1, 168, 122, 0, 0, 16, 8, 111, // withdraw the first ROA
		2, 168, 122, 0, 0, 16, 0, 111,
	})
	f.Add([]byte{
		8, 32, 1, 13, 184, 32, 16, 200, // IPv6 announce
		10, 32, 1, 13, 184, 48, 0, 200, // IPv6 query under it
		10, 32, 1, 13, 184, 0, 0, 200, // IPv6 /0 query
	})
	// A path-copied snapshot with garbage in it: 10.0.0.0/9 branches to two
	// /16s, the second with a /24 under it; withdrawing the second and its /24
	// leaves the branch node with a dead chain down one side, withdrawing the
	// first with nothing down either.
	f.Add([]byte{
		0, 10, 0, 0, 0, 16, 0, 1, 0, 10, 64, 0, 0, 16, 0, 2, 0, 10, 64, 7, 0, 24, 0, 2,
		1, 10, 64, 0, 0, 16, 0, 2, 1, 10, 64, 7, 0, 24, 0, 2,
		2, 10, 64, 7, 0, 24, 0, 2, 2, 10, 0, 0, 0, 16, 0, 1, // under the dead side, under the live one
		1, 10, 0, 0, 0, 16, 0, 1,
		2, 10, 0, 0, 0, 16, 0, 1,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		state := map[rpki.VRP]struct{}{}
		tab := NewTable(nil)
		var queries []Route
		rebuild := func() (*rpki.Set, *Index, *CompactIndex) {
			vrps := make([]rpki.VRP, 0, len(state))
			for v := range state {
				vrps = append(vrps, v)
			}
			set := rpki.NewSet(vrps)
			return set, NewIndex(set), NewCompactIndex(set)
		}
		for len(data) >= 8 {
			op := data[:8]
			data = data[8:]
			tag, v := op[0], fuzzOp(t, op)
			p, origin := v.Prefix, v.AS
			if tag%3 == 2 {
				queries = append(queries, Route{Prefix: p, Origin: origin})
				continue
			}
			if tag%3 == 0 {
				state[v] = struct{}{}
				pathCopy(tab, []rpki.VRP{v}, nil)
			} else {
				delete(state, v)
				pathCopy(tab, nil, []rpki.VRP{v})
			}
			// Per-delta differential: the fresh compact build must answer the
			// delta's own prefix (and queries so far) exactly like the Index.
			_, ix, cx := rebuild()
			probes := append([]Route{{Prefix: p, Origin: origin}, {Prefix: p, Origin: origin + 1}}, queries...)
			for _, q := range probes {
				if got, want := cx.Validate(q.Prefix, q.Origin), ix.Validate(q.Prefix, q.Origin); got != want {
					t.Fatalf("after delta %v: CompactIndex.Validate(%s, %v) = %v, Index %v", v, q.Prefix, q.Origin, got, want)
				}
			}
		}
		set, ix, cx := rebuild()
		ref := NewReference(set)
		cfi, cfs := CompactFromIndex(ix), CompactFromIndex(tab.Snapshot())
		for _, v := range set.VRPs() {
			queries = append(queries,
				Route{Prefix: v.Prefix, Origin: v.AS},
				Route{Prefix: v.Prefix, Origin: v.AS + 1})
		}
		for _, q := range queries {
			want := ref.Validate(q.Prefix, q.Origin)
			if got := cx.Validate(q.Prefix, q.Origin); got != want {
				t.Fatalf("CompactIndex.Validate(%s, %v) = %v, reference %v", q.Prefix, q.Origin, got, want)
			}
			if got := cfi.Validate(q.Prefix, q.Origin); got != want {
				t.Fatalf("CompactFromIndex.Validate(%s, %v) = %v, reference %v", q.Prefix, q.Origin, got, want)
			}
			if got := cfs.Validate(q.Prefix, q.Origin); got != want {
				t.Fatalf("CompactFromIndex(path-copied).Validate(%s, %v) = %v, reference %v", q.Prefix, q.Origin, got, want)
			}
		}
		checkSlotSpans(t, "CompactFromIndex", cfi)
		checkSlotSpans(t, "CompactFromIndex(path-copied)", cfs)
		if got, want := cfs.AppendVRPs(nil), tab.Snapshot().AppendVRPs(nil); !slices.Equal(got, want) {
			t.Fatalf("AppendVRPs: %d VRPs derived from the path-copied snapshot, which streams %d, or in another order", len(got), len(want))
		}
		if cfs.Len() != set.Len() {
			t.Fatalf("CompactFromIndex(path-copied) holds %d VRPs, the set %d", cfs.Len(), set.Len())
		}
		got, want := cx.AppendVRPs(nil), ix.AppendVRPs(nil)
		if len(got) != len(want) {
			t.Fatalf("AppendVRPs: compact %d VRPs, index %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("AppendVRPs[%d]: compact %v, index %v", i, got[i], want[i])
			}
		}
	})
}

// FuzzDiff drives a LiveIndex with a fuzzer-chosen announce/withdraw stream
// (the FuzzIndex op encoding, minus queries; tag%2 selects the op) and keeps
// the snapshot after every delta beside the table it should hold. An op
// carrying tag bit 4 continues the open delta — one Apply of many VRPs, which
// path-copies each node once however many of its prefixes share it — and one
// without starts the next; an op carrying tag bit 5 has any compaction its
// delta starts waited out before the next delta. At the end every kept
// snapshot must still hold its table, and Diff between the first, middle and
// last snapshots, between each consecutive pair, and between an independent
// rebuild of the middle one's table and the last must be bit-identical to the
// naive sorted-set difference. Consecutive pairs must also equal the walk:
// after a path-copied delta they are parent and child, whose Diff is the delta
// the child carries, across a compaction too. Other pairs on one arena lineage
// take the structural walk, the rebuilt pair (and any other pair across a
// compaction or a first sync) the linear one.
func FuzzDiff(f *testing.F) {
	f.Add([]byte{
		0, 168, 122, 0, 0, 16, 0, 111, // announce 168.122.0.0/16-16 => AS111
		0, 168, 122, 0, 0, 16, 8, 111, // widen: /16-24 alongside it
		1, 168, 122, 0, 0, 16, 0, 111, // withdraw the first
		8, 32, 1, 13, 184, 32, 16, 200, // IPv6 announce
	})
	// An empty side: the snapshot is taken of a table emptied again (its dead
	// chain still there), and everything after it is new.
	f.Add([]byte{
		0, 10, 1, 0, 0, 16, 0, 1, 1, 10, 1, 0, 0, 16, 0, 1,
		0, 10, 1, 0, 0, 16, 2, 3, 0, 10, 1, 0, 0, 16, 1, 2, // one prefix, (AS, MaxLength) descending
	})
	// A one-sided subtree: 10/8 and below before the snapshot, a 192.168/16
	// block only after it, two entries at one prefix in descending order.
	f.Add([]byte{
		0, 10, 0, 0, 0, 8, 0, 1, 0, 10, 1, 0, 0, 16, 0, 1, 0, 10, 1, 2, 0, 24, 0, 2,
		0, 192, 168, 0, 0, 16, 0, 5, 0, 192, 168, 1, 0, 24, 1, 4, 0, 192, 168, 1, 0, 24, 0, 3,
	})
	// ops encodes IPv4 ops for the seeds below: (tag, a.b.c.0/len-len, AS).
	type op struct {
		tag     byte
		a, b, c byte
		len, as byte
	}
	ops := func(list ...op) []byte {
		var out []byte
		for _, o := range list {
			out = append(out, o.tag, o.a, o.b, o.c, 0, o.len, 0, o.as)
		}
		return out
	}
	// contTag: the op continues the open delta; waitTag: its compaction is waited out.
	const annTag, wdTag, contTag, waitTag = 0, 1, 16, 32
	// sync is a first full sync of n /16s: one delta into the empty table, built.
	sync := func(n int) []op {
		var out []op
		for k := 0; k < n; k++ {
			out = append(out, op{tag: annTag | contTag*byte(min(k, 1)), a: 10, b: byte(k), len: 16, as: 1})
		}
		return out
	}
	// A clustered delta onto a first sync: eight /24s
	// of one /21 and a second entry at the first of them, whose path the delta
	// has already copied; then a delta that grows one of those spans twice and
	// takes an entry out of it again.
	clustered := sync(24)
	for k := byte(0); k < 8; k++ {
		clustered = append(clustered, op{tag: annTag | contTag*min(k, 1), a: 198, b: 51, c: 96 + k, len: 24, as: 2})
	}
	clustered = append(clustered, op{tag: annTag | contTag, a: 198, b: 51, c: 96, len: 24, as: 3},
		op{tag: annTag, a: 198, b: 51, c: 97, len: 24, as: 4}, op{tag: annTag | contTag, a: 198, b: 51, c: 97, len: 24, as: 5},
		op{tag: wdTag | contTag, a: 198, b: 51, c: 97, len: 24, as: 2})
	f.Add(ops(clustered...))
	// One VRP announced and withdrawn by one delta, at a prefix that holds
	// another; then a delta that replaces that prefix's entry with a new one.
	f.Add(ops(append(sync(4),
		op{tag: annTag, a: 10, b: 1, len: 16, as: 2}, op{tag: wdTag | contTag, a: 10, b: 1, len: 16, as: 2},
		op{tag: annTag, a: 10, b: 1, len: 16, as: 3}, op{tag: wdTag | contTag, a: 10, b: 1, len: 16, as: 1})...))
	// Across a compaction: /24s announced and withdrawn one a delta under the
	// /16s of a first sync, each delta's compaction waited out, until the
	// garbage of their path copies has started one, three times over.
	churn := sync(24)
	for k := byte(0); k < 60; k++ {
		churn = append(churn, op{tag: annTag | waitTag, a: 10, b: k % 24, c: k, len: 24, as: 2}, op{tag: wdTag | waitTag, a: 10, b: k % 24, c: k, len: 24, as: 2})
	}
	f.Add(ops(churn...))
	// TestDeltaShapes' delta onto a first sync: a
	// chain and a sibling listed deepest first, a /0, a repeat, an announce the
	// delta withdraws, a present VRP withdrawn, and two absent withdraws, the
	// second under the first; then, IPv6 (8 = announce), ::/0 and a /64, the
	// deepest prefix the op encoding reaches. Then the clustered delta's eight
	// /24s listed in reverse.
	shapes := append(sync(32),
		op{tag: annTag, a: 11, b: 1, c: 2, len: 24, as: 1}, op{tag: annTag | contTag, a: 11, b: 1, c: 3, len: 24, as: 1},
		op{tag: annTag | contTag, a: 11, b: 1, len: 16, as: 1}, op{tag: annTag | contTag, a: 11, len: 8, as: 1},
		op{tag: annTag | contTag, as: 3}, op{tag: annTag | contTag, a: 11, b: 1, c: 2, len: 24, as: 1},
		op{tag: wdTag | contTag, a: 11, b: 9, c: 2, len: 24, as: 1}, op{tag: wdTag | contTag, a: 11, b: 9, len: 16, as: 1},
		op{tag: wdTag | contTag, a: 11, b: 1, c: 3, len: 24, as: 1}, op{tag: wdTag | contTag, a: 10, b: 1, len: 16, as: 1})
	seed := append(ops(shapes...), 8|contTag, 0, 0, 0, 0, 0, 0, 3, 8|contTag, 32, 1, 13, 184, 64, 0, 2)
	for k := byte(8); k > 0; k-- {
		seed = append(seed, ops(op{tag: annTag | contTag*min(8-k, 1), a: 198, b: 51, c: 95 + k, len: 24, as: 2})...)
	}
	f.Add(seed)
	// A delta larger than the table it lands on, path-copied as every delta
	// into a non-empty table is: each /16 of a first sync withdrawn and a /24
	// under it announced, and a /8 announced and withdrawn at once; its
	// compaction, if it starts one, waited out.
	large := sync(8)
	for k := byte(0); k < 8; k++ {
		large = append(large, op{tag: wdTag | contTag*min(k, 1), a: 10, b: k, len: 16, as: 1},
			op{tag: annTag | contTag, a: 10, b: k, c: k, len: 24, as: 2})
	}
	large = append(large, op{tag: annTag | contTag, a: 12, len: 8, as: 3}, op{tag: wdTag | contTag | waitTag, a: 12, len: 8, as: 3})
	f.Add(ops(large...))
	f.Fuzz(func(t *testing.T, data []byte) {
		live := NewLiveIndex(rpki.NewSet(nil))
		state := map[rpki.VRP]struct{}{}
		snaps, tables := []*Index{live.Snapshot()}, [][]rpki.VRP{nil}
		var ann, wd []rpki.VRP // the open delta
		wait := false          // whether to wait out the compaction it starts
		flush := func() {
			if len(ann)+len(wd) == 0 {
				return
			}
			live.Apply(ann, wd)
			for _, v := range ann {
				state[v] = struct{}{}
			}
			for _, v := range wd {
				delete(state, v)
			}
			snaps, tables = append(snaps, live.Snapshot()), append(tables, setOf(state).VRPs())
			if wait {
				waitCompactor(t, &live.tab)
			}
			ann, wd, wait = nil, nil, false
		}
		for ; len(data) >= 8; data = data[8:] {
			tag, v := data[0], fuzzOp(t, data[:8])
			if tag&16 == 0 {
				flush()
			}
			if tag%2 == 0 {
				ann = append(ann, v)
			} else {
				wd = append(wd, v)
			}
			wait = wait || tag&waitTag != 0
		}
		flush()
		for i, ix := range snaps {
			if extra, missing := naiveSetDiff(tables[i], ix.AppendVRPs(nil)); len(extra)+len(missing) != 0 || ix.Len() != len(tables[i]) {
				t.Fatalf("snapshot after delta %d of %d: %d VRPs extra, %d missing, Len() %d of %d",
					i, len(snaps)-1, len(extra), len(missing), ix.Len(), len(tables[i]))
			}
		}
		first, mid, last := snaps[0], snaps[len(snaps)/2], snaps[len(snaps)-1]
		for _, pair := range [][2]*Index{{first, last}, {mid, last}} {
			checkDiffAgainstNaive(t, pair[0], pair[1])
			checkDiffAgainstNaive(t, pair[1], pair[0])
		}
		for i := 1; i < len(snaps); i++ {
			checkDiffAgainstNaive(t, snaps[i-1], snaps[i])
			checkDiffAgainstWalk(t, fmt.Sprintf("delta %d", i), snaps[i-1], snaps[i])
		}
		// Independent rebuild of the middle table: linear path, same answer.
		rebuilt := newIndexFromVRPs(mid.AppendVRPs(nil), nil)
		checkDiffAgainstNaive(t, rebuilt, last)
		checkDiffAgainstNaive(t, last, rebuilt)
	})
}

// FuzzLiveOverlay aims the fuzzer at a LiveIndex that keeps its compact half
// across deltas: the FuzzIndex op stream (batching included) lands on a table
// padded so that it is never empty and every delta is path-copied, readers
// pay before every delta, and after every one — with the overlay non-empty, a
// rebuild in flight or just installed, as the delta's marks decide —
// Validate and ValidateBatch must equal the Reference and a fresh Index on the
// neighbourhood of every prefix the delta touched plus every query so far.
// tag%4 == 3 replaces the table with itself through ResetTo, which discards
// whatever rebuild is in flight.
func FuzzLiveOverlay(f *testing.F) {
	f.Add([]byte{
		0, 10, 1, 3, 0, 24, 1, 1, // announce 10.1.3.0/24-25: one mark
		2, 10, 1, 2, 0, 23, 0, 1, // query the /23 containing it
		0, 10, 16, 0, 0, 13, 3, 2, // a /13: a block in both bitmaps
		2, 10, 17, 0, 0, 16, 0, 2, // query inside it
		1, 10, 1, 3, 0, 24, 1, 1, // withdraw the /24
		3, 0, 0, 0, 0, 0, 0, 0, // ResetTo
		0, 10, 0, 0, 0, 6, 0, 3, // a /6 fills the first bitmap: a rebuild is due
		2, 10, 200, 0, 0, 16, 0, 3,
	})
	f.Add([]byte{
		8, 32, 1, 13, 184, 48, 0, 3, // IPv6 /48: its /32's key
		8, 42, 0, 0, 0, 21, 3, 4, // IPv6 /21: blocks
		10, 42, 0, 1, 0, 24, 0, 4, // query inside it
		24, 32, 1, 13, 184, 32, 0, 6, 25, 32, 1, 13, 184, 32, 0, 6, // announced and withdrawn by one delta
		10, 32, 1, 13, 184, 40, 0, 6,
	})
	// A rebuild from a path-copied snapshot with garbage in it: a branch at
	// 10.0.0.0/9 loses one side, then a /6 makes the rebuild due, then the
	// other side goes and a second /6 rebuilds again.
	f.Add([]byte{
		0, 10, 0, 0, 0, 16, 0, 1, 0, 10, 64, 0, 0, 16, 0, 2, 0, 10, 64, 7, 0, 24, 0, 2,
		1, 10, 64, 0, 0, 16, 0, 2, 1, 10, 64, 7, 0, 24, 0, 2,
		0, 8, 0, 0, 0, 6, 0, 3,
		2, 10, 64, 7, 0, 24, 0, 2, 2, 10, 0, 9, 0, 24, 0, 1,
		1, 10, 0, 0, 0, 16, 0, 1,
		0, 12, 0, 0, 0, 6, 0, 3,
		2, 10, 0, 9, 0, 24, 0, 1,
	})
	// A delta larger than the padded table: 72 /24s announced at once, two of
	// them withdrawn by the same delta; then a query at one of those.
	var large []byte
	for k := byte(0); k < 72; k++ {
		large = append(large, 16, 10, k, 0, 0, 24, 0, 1+k%7)
	}
	f.Add(append(large, 17, 10, 3, 0, 0, 24, 0, 4, 17, 10, 5, 0, 0, 24, 0, 6, 2, 10, 3, 0, 0, 24, 0, 4))
	f.Fuzz(func(t *testing.T, data []byte) {
		state := map[rpki.VRP]struct{}{}
		var pad []rpki.VRP
		for k := 0; k < 64; k++ {
			pad = append(pad, markerVRP(k))
			state[markerVRP(k)] = struct{}{}
		}
		live := NewLiveIndex(setOf(state))
		queries := probesAround(pad[:2])
		var ann, wd []rpki.VRP // the open batch
		flush := func() {
			if len(ann)+len(wd) == 0 {
				return
			}
			pay(live, queries)
			live.Apply(ann, wd)
			for _, v := range ann {
				state[v] = struct{}{}
			}
			for _, v := range wd {
				delete(state, v)
			}
			checkLive(t, live, state, append(probesAround(append(ann, wd...)), queries...), "after a delta")
			ann, wd = ann[:0], wd[:0]
		}
		for ; len(data) >= 8; data = data[8:] {
			tag, v := data[0], fuzzOp(t, data[:8])
			if tag%4 >= 2 || tag&16 == 0 {
				flush()
			}
			switch tag % 4 {
			case 0:
				ann = append(ann, v)
			case 1:
				wd = append(wd, v)
			case 2:
				queries = append(queries, Route{Prefix: v.Prefix, Origin: v.AS})
			case 3:
				live.ResetTo(setOf(state).VRPs())
				checkLive(t, live, state, queries, "after ResetTo")
			}
			if tag&16 == 0 {
				flush()
			}
		}
		flush()
		quiesce(t, live)
		checkLive(t, live, state, queries, "at rest")
	})
}
