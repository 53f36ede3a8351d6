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
// Every snapshot the LiveIndex publishes — a delta's, a first sync's, a
// compaction's — and both builds must be in the trie's shape (shapeError).
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
		shapes := checkShapes(t, &live.Table)
		var queries []Route
		var given []rpki.VRP   // every announce, in stream order
		var ann, wd []rpki.VRP // the open batch
		flush := func() {
			if len(ann)+len(wd) == 0 {
				return
			}
			live.Apply(ann, wd)
			shapes()
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
		order := "given"
		if len(data) > 0 {
			order = []string{"given", "preorder", "reversed", "interleaved"}[data[0]%4]
			given = buildOrders(given, 0)[order]
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
		ix, ref := NewIndex(set), NewReference(set)
		if ix.Len() != set.Len() || live.Len() != set.Len() {
			t.Fatalf("index %d / live %d / set %d VRPs", ix.Len(), live.Len(), set.Len())
		}
		ordered := newIndexFromVRPs(given, nil)
		checkShape(t, "the build of the set", ix)
		checkShape(t, "the ordered build", ordered)
		checkSameSlabs(t, "the ordered build", ordered, insertLoopIndex(inPreorder(given)))
		checkSameTable(t, "the ordered build", ordered, ix)
		for _, q := range queries {
			want := ref.Validate(q.Prefix, q.Origin)
			if got := ix.Validate(q.Prefix, q.Origin); got != want {
				t.Fatalf("Index.Validate(%s, %v) = %v, reference %v", q.Prefix, q.Origin, got, want)
			}
			if got := live.Validate(q.Prefix, q.Origin); got != want {
				t.Fatalf("LiveIndex.Validate(%s, %v) = %v, reference %v", q.Prefix, q.Origin, got, want)
			}
		}
		waitCompactor(t, &live.Table)
		shapes()
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

// radixOp decodes one 8-byte op as fuzzOp does, but aims its prefix at the
// radix root: len's low two bits pick a length class — /0–/15, the short-prefix
// trie's; /15–/17, a slot's edges; any length of the family; or, for IPv6,
// past /32, with address bits in both words — and the address bytes, the
// second quad byte-swapped from the first, fill the whole key.
func radixOp(t *testing.T, op []byte) rpki.VRP {
	fam, famMax := prefix.IPv4, uint8(32)
	if op[0]&8 != 0 {
		fam, famMax = prefix.IPv6, 128
	}
	var l uint8
	switch k := op[5] >> 2; op[5] & 3 {
	case 0:
		l = k % 16
	case 1:
		l = 15 + k%3
	case 2:
		l = k % (famMax + 1)
	default:
		l = famMax/4 + 1 + k%(famMax-famMax/4)
	}
	a := uint64(binary.BigEndian.Uint32(op[1:5]))
	hi, lo := a<<32, uint64(0)
	if fam == prefix.IPv6 {
		b := uint64(binary.LittleEndian.Uint32(op[1:5]))
		hi, lo = a<<32|b, b<<32|a
	}
	p, err := prefix.Make(fam, hi, lo, l)
	if err != nil {
		t.Fatal(err)
	}
	return rpki.VRP{Prefix: p, MaxLength: l + op[6]%(famMax-l+1), AS: rpki.ASN(op[7]) % 8}
}

// FuzzCompactIndex is a differential of Index.Validate and ValidateBatch
// against the Reference, aimed at the radix root (radixOp: short prefixes,
// slot edges, IPv6 keys past 32 bits, both families): tag%3 announces,
// withdraws or queries, each delta path-copied into a Table, whose every
// snapshot must be in shape (checkShapes: no branch point above /16 outside
// the short-prefix trie, each slot's trie the one a build makes, no older
// snapshot's page or node written). After every delta the snapshot answers
// the delta's neighbourhood and every query so far as the Reference does,
// through both entry points; at the end so do builds of the table in the
// three orders a builder meets, and Diff between the last snapshot and each
// build is empty.
func FuzzCompactIndex(f *testing.F) {
	f.Add([]byte{
		0, 168, 122, 0, 0, 66, 8, 111, // announce 168.122.0.0/16-24 => AS111
		2, 168, 122, 0, 0, 98, 0, 111, // a /24 under it, right origin
		0, 168, 122, 0, 0, 32, 0, 42, // a /8 at another origin: the short-prefix trie
		2, 168, 122, 0, 0, 16, 0, 42, // query shorter than /16
		1, 168, 122, 0, 0, 66, 8, 111, // withdraw the /16: its slot empties
		2, 168, 122, 0, 0, 66, 0, 111,
	})
	f.Add([]byte{
		8, 32, 1, 13, 184, 131, 16, 200, // IPv6 past /32
		10, 32, 1, 13, 184, 3, 0, 200, // IPv6 query past /32 too
		8, 32, 1, 13, 184, 20, 0, 200, // IPv6 /5: the family's first short prefix
		10, 32, 1, 13, 184, 0, 0, 200, // IPv6 /0 query
	})
	// Slot edges: a /15 over two slots, a /16 in each, a /17 in the second;
	// the second's /16 and /17 withdrawn, then the slot refilled.
	f.Add([]byte{
		0, 10, 0, 0, 0, 1, 0, 1, 0, 10, 0, 0, 0, 5, 0, 2, 0, 10, 1, 0, 0, 5, 0, 3, 0, 10, 1, 128, 0, 9, 0, 3,
		1, 10, 1, 0, 0, 5, 0, 3, 1, 10, 1, 128, 0, 9, 0, 3,
		2, 10, 1, 7, 0, 98, 0, 3, 2, 10, 0, 0, 0, 5, 0, 2,
		0, 10, 1, 64, 0, 98, 0, 4,
		2, 10, 1, 64, 0, 98, 0, 4,
	})
	f.Add([]byte{
		0, 0, 0, 0, 0, 0, 0, 1, 8, 0, 0, 0, 0, 0, 0, 1, // both families' /0
		0, 255, 255, 255, 255, 130, 0, 2, 8, 255, 255, 255, 255, 255, 0, 2, // their last addresses
		2, 255, 255, 0, 0, 5, 0, 2, 10, 255, 255, 0, 0, 5, 0, 2,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		state := map[rpki.VRP]struct{}{}
		tab := NewTable(nil)
		shapes := checkShapes(t, tab)
		var queries []Route
		check := func(where string, ix *Index, probes []Route) {
			t.Helper()
			ref := NewReference(setOf(state))
			batch := ix.ValidateBatch(probes, nil)
			for i, q := range probes {
				want := ref.Validate(q.Prefix, q.Origin)
				if got := ix.Validate(q.Prefix, q.Origin); got != want || batch[i] != want {
					t.Fatalf("%s: Validate(%s, %v) = %v, ValidateBatch %v, reference %v", where, q.Prefix, q.Origin, got, batch[i], want)
				}
			}
		}
		for ; len(data) >= 8; data = data[8:] {
			tag, v := data[0], radixOp(t, data[:8])
			if tag%3 == 2 {
				queries = append(queries, Route{Prefix: v.Prefix, Origin: v.AS})
				continue
			}
			if tag%3 == 0 {
				state[v] = struct{}{}
				pathCopy(tab, []rpki.VRP{v}, nil)
			} else {
				delete(state, v)
				pathCopy(tab, nil, []rpki.VRP{v})
			}
			shapes()
			check(fmt.Sprintf("after delta %v", v), tab.Snapshot(), append(probesAround([]rpki.VRP{v}), queries...))
		}
		vrps := setOf(state).VRPs()
		for _, v := range vrps {
			queries = append(queries, Route{Prefix: v.Prefix, Origin: v.AS}, Route{Prefix: v.Prefix, Origin: v.AS + 1})
		}
		last := tab.Snapshot()
		check("the last snapshot", last, queries)
		for name, order := range buildOrders(vrps, 1) {
			ix := newIndexFromVRPs(order, nil)
			checkShape(t, name, ix)
			check(name, ix, queries)
			checkSameTable(t, name, ix, last)
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
// compaction or a first sync) the linear one. Last, the empty first snapshot
// against a table ResetTo builds from the stream's announces as given, and
// from the last table in diffOrder, twice each, must equal the walk: the
// first Diff takes the list ResetTo kept, if it was strictly in diffOrder.
// Every snapshot the LiveIndex publishes, every compaction's included, the
// rebuild and the ResetTo builds must be in the trie's shape (shapeError).
func FuzzDiff(f *testing.F) {
	f.Add([]byte{
		0, 168, 122, 0, 0, 16, 0, 111, // announce 168.122.0.0/16-16 => AS111
		0, 168, 122, 0, 0, 16, 8, 111, // widen: /16-24 alongside it
		1, 168, 122, 0, 0, 16, 0, 111, // withdraw the first
		8, 32, 1, 13, 184, 32, 16, 200, // IPv6 announce
	})
	// An empty side: the snapshot is taken of a table emptied again (its node
	// spliced out, garbage in the slab), and everything after it is new.
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
	// The from-empty pair's hand-off: announces already strictly in diffOrder
	// — a /8, a /16 under it with two entries rising by (AS, MaxLength), a
	// sibling /16 — so the list as given is what ResetTo keeps; then IPv6.
	f.Add(append(ops(op{tag: annTag, a: 10, len: 8, as: 1}, op{tag: annTag | contTag, a: 10, b: 1, len: 16, as: 1},
		op{tag: annTag | contTag, a: 10, b: 1, len: 16, as: 2}, op{tag: annTag, a: 10, b: 128, len: 16, as: 1}),
		8, 32, 1, 13, 184, 32, 0, 3))
	f.Fuzz(func(t *testing.T, data []byte) {
		live := NewLiveIndex(rpki.NewSet(nil))
		shapes := checkShapes(t, &live.Table)
		state := map[rpki.VRP]struct{}{}
		snaps, tables := []*Index{live.Snapshot()}, [][]rpki.VRP{nil}
		var ann, wd []rpki.VRP // the open delta
		var given []rpki.VRP   // every announce, as given
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
				waitCompactor(t, &live.Table)
			}
			shapes()
			ann, wd, wait = nil, nil, false
		}
		for ; len(data) >= 8; data = data[8:] {
			tag, v := data[0], fuzzOp(t, data[:8])
			if tag&16 == 0 {
				flush()
			}
			if tag%2 == 0 {
				ann, given = append(ann, v), append(given, v)
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
		checkShape(t, "the rebuild of the middle table", rebuilt)
		checkDiffAgainstNaive(t, rebuilt, last)
		checkDiffAgainstNaive(t, last, rebuilt)
		// From empty over a ResetTo'd table, of the announces as given and of
		// the last table in diffOrder: the first Diff may take the list the
		// table kept, the second walks, and each is the walk's answer.
		for _, list := range [][]rpki.VRP{given, last.AppendVRPs(nil)} {
			tab := NewTable(nil)
			tab.ResetTo(slices.Clone(list))
			checkShape(t, "a ResetTo build", tab.Snapshot())
			checkDiffAgainstWalk(t, "from empty, first", first, tab.Snapshot())
			checkDiffAgainstWalk(t, "from empty, second", first, tab.Snapshot())
		}
		waitCompactor(t, &live.Table)
		shapes()
	})
}

// FuzzLiveOverlay drives a LiveIndex through Apply and ResetTo: the FuzzIndex
// op stream (batching included; fuzzOp) lands on a table padded so that it is
// never empty and every delta is path-copied, and tag%4 == 3 replaces the
// table with itself through ResetTo, in fresh slabs. After every delta and
// every ResetTo, the LiveIndex — Validate and ValidateBatch — answers the
// neighbourhood of every prefix the delta touched, and every query so far, as
// the Reference and a fresh Index of the model do, and Diff from the snapshot
// before to the snapshot after, and back, is the model's sorted-set
// difference. Every snapshot the table publishes, compactions' included,
// must be in shape and leave older snapshots' slabs as published
// (checkShapes).
func FuzzLiveOverlay(f *testing.F) {
	f.Add([]byte{
		0, 10, 1, 3, 0, 24, 1, 1, // announce 10.1.3.0/24-25
		2, 10, 1, 2, 0, 23, 0, 1, // query the /23 containing it
		0, 10, 16, 0, 0, 13, 3, 2, // a /13: the short-prefix trie
		2, 10, 17, 0, 0, 16, 0, 2, // query inside it
		1, 10, 1, 3, 0, 24, 1, 1, // withdraw the /24
		3, 0, 0, 0, 0, 0, 0, 0, // ResetTo
		0, 10, 0, 0, 0, 6, 0, 3, // a /6
		2, 10, 200, 0, 0, 16, 0, 3,
	})
	f.Add([]byte{
		8, 32, 1, 13, 184, 48, 0, 3, // IPv6 /48
		8, 42, 0, 0, 0, 21, 3, 4, // IPv6 /21
		10, 42, 0, 1, 0, 24, 0, 4, // query inside it
		24, 32, 1, 13, 184, 32, 0, 6, 25, 32, 1, 13, 184, 32, 0, 6, // announced and withdrawn by one delta
		10, 32, 1, 13, 184, 40, 0, 6,
	})
	// A branch at 10.0.0.0/9 loses one side, then a /6, then the other side
	// goes and a second /6.
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
	// Two ResetTos back to back, then deltas.
	f.Add([]byte{
		0, 10, 1, 3, 0, 24, 1, 1, // announce 10.1.3.0/24-25
		3, 0, 0, 0, 0, 0, 0, 0, // ResetTo
		3, 0, 0, 0, 0, 0, 0, 0, // ResetTo again
		16, 10, 2, 0, 0, 16, 0, 2, 1, 10, 1, 3, 0, 24, 1, 1, // one delta: a /16 in, the /24 out
		2, 10, 1, 3, 0, 24, 0, 1, // query the /24
		0, 10, 0, 0, 0, 6, 0, 3, // a /6
		2, 10, 2, 7, 0, 24, 0, 2,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		state := map[rpki.VRP]struct{}{}
		var pad []rpki.VRP
		for k := 0; k < 64; k++ {
			pad = append(pad, markerVRP(k))
			state[markerVRP(k)] = struct{}{}
		}
		live := NewLiveIndex(setOf(state))
		shapes := checkShapes(t, &live.Table)
		queries := probesAround(pad[:2])
		var ann, wd []rpki.VRP // the open batch
		step := func(where string, touched []rpki.VRP, before *Index, was []rpki.VRP) {
			t.Helper()
			shapes()
			checkLive(t, live, state, append(probesAround(touched), queries...), where)
			now := setOf(state).VRPs()
			a, w := naiveSetDiff(was, now)
			if ga, gw := Diff(before, live.Snapshot()); !slices.Equal(ga, a) || !slices.Equal(gw, w) {
				t.Fatalf("%s: Diff is +%d -%d, the model's +%d -%d", where, len(ga), len(gw), len(a), len(w))
			}
			if ga, gw := Diff(live.Snapshot(), before); !slices.Equal(ga, w) || !slices.Equal(gw, a) {
				t.Fatalf("%s: Diff back is +%d -%d, the model's +%d -%d", where, len(ga), len(gw), len(w), len(a))
			}
		}
		flush := func() {
			if len(ann)+len(wd) == 0 {
				return
			}
			before, was := live.Snapshot(), setOf(state).VRPs()
			live.Apply(ann, wd)
			for _, v := range ann {
				state[v] = struct{}{}
			}
			for _, v := range wd {
				delete(state, v)
			}
			step("after a delta", append(ann, wd...), before, was)
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
				before, was := live.Snapshot(), setOf(state).VRPs()
				live.ResetTo(setOf(state).VRPs())
				if live.Snapshot().fams[0].sameLineage(&before.fams[0]) {
					t.Fatal("ResetTo kept the replaced table's slabs")
				}
				step("after ResetTo", nil, before, was)
			}
			if tag&16 == 0 {
				flush()
			}
		}
		flush()
		waitCompactor(t, &live.Table)
		shapes()
		checkLive(t, live, state, queries, "at rest")
	})
}
