package core

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/prefix"
	"repro/internal/rpki"
)

// This file differentially tests the Trie against refImpl, a deliberately
// naive reference: a flat tuple list answering every query by linear scan
// (and authorized-space counting by exhaustive enumeration). The two
// implementations share nothing but the VRP semantics, so agreement over
// seeded random workloads pins the Trie's Lookup, Authorizes and
// CountAuthorized behavior independently of its slab/index representation.

// refImpl is the reference model of one (AS, family) tuple set.
type refImpl struct {
	tuples []rpki.VRP
}

func (r *refImpl) insert(p prefix.Prefix, ml uint8) {
	for i, t := range r.tuples {
		if t.Prefix == p {
			if ml > t.MaxLength {
				r.tuples[i].MaxLength = ml
			}
			return
		}
	}
	r.tuples = append(r.tuples, rpki.VRP{Prefix: p, MaxLength: ml})
}

func (r *refImpl) lookup(p prefix.Prefix) (uint8, bool) {
	for _, t := range r.tuples {
		if t.Prefix == p {
			return t.MaxLength, true
		}
	}
	return 0, false
}

func (r *refImpl) authorizes(q prefix.Prefix) bool {
	for _, t := range r.tuples {
		if t.Prefix.Family() == q.Family() && t.Prefix.Contains(q) && t.MaxLength >= q.Len() {
			return true
		}
	}
	return false
}

// countAuthorized enumerates every prefix of the family up to depth limit
// and counts the authorized ones. Exponential in limit; callers keep all
// maxLengths <= limit so the count equals the Trie's unbounded one.
func (r *refImpl) countAuthorized(fam prefix.Family, limit uint8) uint64 {
	root, err := prefix.Make(fam, 0, 0, 0)
	if err != nil {
		panic(err)
	}
	var count uint64
	var rec func(q prefix.Prefix)
	rec = func(q prefix.Prefix) {
		if r.authorizes(q) {
			count++
		}
		if q.Len() < limit {
			rec(q.Child(0))
			rec(q.Child(1))
		}
	}
	rec(root)
	return count
}

// randomEngineTuples draws tuples shallow enough (maxLength <= limit) that
// the reference's exhaustive count stays feasible.
func randomEngineTuples(rng *rand.Rand, fam prefix.Family, n int, limit uint8) []rpki.VRP {
	var out []rpki.VRP
	for i := 0; i < n; i++ {
		l := uint8(rng.Intn(int(limit)))
		hi := rng.Uint64()
		lo := uint64(0)
		if fam == prefix.IPv4 {
			hi &= 0xffffffff00000000
		} else {
			lo = rng.Uint64()
		}
		p, err := prefix.Make(fam, hi, lo, l)
		if err != nil {
			panic(err)
		}
		ml := l + uint8(rng.Intn(int(limit-l)+1))
		out = append(out, rpki.VRP{Prefix: p, MaxLength: ml})
	}
	return out
}

func TestEngineDifferential(t *testing.T) {
	const limit = 12
	rng := rand.New(rand.NewSource(2017))
	for trial := 0; trial < 150; trial++ {
		fam := prefix.IPv4
		if trial%4 == 3 {
			fam = prefix.IPv6
		}
		const as = rpki.ASN(64500)
		tuples := randomEngineTuples(rng, fam, 1+rng.Intn(10), limit)
		tr := NewTrie(as, fam)
		var ref refImpl
		for _, x := range tuples {
			tr.Insert(x.Prefix, x.MaxLength)
			ref.insert(x.Prefix, x.MaxLength)
		}
		if err := tr.checkInvariants(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if tr.Size() != len(ref.tuples) {
			t.Fatalf("trial %d: Size = %d, reference has %d", trial, tr.Size(), len(ref.tuples))
		}
		// Lookup and Authorizes on the inserted prefixes, their neighborhood,
		// and fresh random probes.
		var probes []prefix.Prefix
		for _, x := range tuples {
			probes = append(probes, x.Prefix)
			if x.Prefix.Len() > 0 {
				probes = append(probes, x.Prefix.Parent(), x.Prefix.Sibling())
			}
			probes = append(probes, x.Prefix.Child(uint8(rng.Intn(2))))
		}
		for _, x := range randomEngineTuples(rng, fam, 10, limit+4) {
			probes = append(probes, x.Prefix)
		}
		for _, q := range probes {
			gotML, gotOK := tr.Lookup(q)
			wantML, wantOK := ref.lookup(q)
			if gotOK != wantOK || (gotOK && gotML != wantML) {
				t.Fatalf("trial %d: Lookup(%s) = (%d,%v), reference (%d,%v)",
					trial, q, gotML, gotOK, wantML, wantOK)
			}
			if got, want := tr.Authorizes(q), ref.authorizes(q); got != want {
				t.Fatalf("trial %d: Authorizes(%s) = %v, reference %v", trial, q, got, want)
			}
		}
		if got, want := tr.CountAuthorized(), ref.countAuthorized(fam, limit); got != want {
			t.Fatalf("trial %d: CountAuthorized = %d, reference %d (tuples %v)",
				trial, got, want, ref.tuples)
		}
		// Compression over the same tuples must preserve semantics exactly
		// (checked by the independent merged-trie verifier) and, per trie,
		// preserve the authorized route count.
		withAS := make([]rpki.VRP, len(tuples))
		for i, x := range tuples {
			x.AS = as
			withAS[i] = x
		}
		in := rpki.NewSet(withAS)
		for _, opts := range []Options{{}, {Subsumption: true}} {
			out, res := Compress(in, opts)
			if ok, ce := SemanticEqual(in, out); !ok {
				t.Fatalf("trial %d opts %+v: compression changed semantics: %s", trial, opts, ce)
			}
			if res.Out > res.In {
				t.Fatalf("trial %d: compression grew the set: %+v", trial, res)
			}
			ctr := NewTrie(as, fam)
			for _, x := range out.VRPs() {
				ctr.InsertVRP(x)
			}
			if got := ctr.CountAuthorized(); got != tr.CountAuthorized() {
				t.Fatalf("trial %d opts %+v: authorized count changed %d -> %d",
					trial, opts, tr.CountAuthorized(), got)
			}
		}
	}
}

// TestTrieRelease: a released trie gives up its slab, and a trie built after
// it starts from nothing.
func TestTrieRelease(t *testing.T) {
	tr := NewTrie(1, prefix.IPv4)
	tr.Insert(mp("10.0.0.0/8"), 16)
	tr.Insert(mp("192.168.0.0/16"), 24)
	tr.Release()
	if err := tr.checkInvariants(); err == nil {
		t.Fatal("released trie still has its slab")
	}
	tr2 := newTrieCap(2, prefix.IPv4, 4)
	tr2.Insert(mp("10.0.0.0/8"), 8)
	if err := tr2.checkInvariants(); err != nil {
		t.Fatalf("later trie: %v", err)
	}
	if tr2.Size() != 1 {
		t.Fatalf("later trie size = %d", tr2.Size())
	}
	if ml, ok := tr2.Lookup(mp("10.0.0.0/8")); !ok || ml != 8 {
		t.Fatalf("later trie Lookup = %d, %v", ml, ok)
	}
	if _, ok := tr2.Lookup(mp("192.168.0.0/16")); ok {
		t.Fatal("later trie leaked a tuple from its previous life")
	}
}

// FuzzTrieVsReference drives the trie and the reference with the same
// fuzzer-chosen insert stream and checks agreement on every touched prefix.
func FuzzTrieVsReference(f *testing.F) {
	f.Add([]byte{8, 10, 0, 0, 0, 16})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 24, 192, 168, 1, 0, 24})
	f.Add([]byte{32, 1, 2, 3, 4, 32, 31, 1, 2, 3, 4, 32})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := NewTrie(1, prefix.IPv4)
		var ref refImpl
		var seen []prefix.Prefix
		for len(data) >= 6 {
			l := data[0] % 33
			addr := uint64(binary.BigEndian.Uint32(data[1:5])) << 32
			p, err := prefix.Make(prefix.IPv4, addr, 0, l)
			if err != nil {
				t.Fatal(err)
			}
			ml := l + data[5]%(33-l)
			tr.Insert(p, ml)
			ref.insert(p, ml)
			seen = append(seen, p)
			data = data[6:]
		}
		if err := tr.checkInvariants(); err != nil {
			t.Fatal(err)
		}
		for _, q := range seen {
			gotML, gotOK := tr.Lookup(q)
			wantML, wantOK := ref.lookup(q)
			if gotOK != wantOK || gotML != wantML {
				t.Fatalf("Lookup(%s) = (%d,%v), reference (%d,%v)", q, gotML, gotOK, wantML, wantOK)
			}
			if got, want := tr.Authorizes(q), ref.authorizes(q); got != want {
				t.Fatalf("Authorizes(%s) = %v, reference %v", q, got, want)
			}
		}
	})
}
