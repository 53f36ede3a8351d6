package rpki

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/prefix"
)

// randomVRPs draws n tuples from a space small enough that repeats, equal
// prefixes and neighbouring ASes are common.
func randomVRPs(rng *rand.Rand, n int) []VRP {
	out := make([]VRP, n)
	for i := range out {
		l := uint8(8 + rng.Intn(4))
		fam := prefix.IPv4
		if rng.Intn(4) == 0 {
			fam = prefix.IPv6
		}
		p, err := prefix.Make(fam, uint64(rng.Intn(16))<<56, 0, l)
		if err != nil {
			panic(err)
		}
		out[i] = VRP{Prefix: p, MaxLength: l + uint8(rng.Intn(3)), AS: ASN(rng.Intn(4))}
	}
	return out
}

// fullSort is what normalization means: the plain sort and dedup NewSet ran
// on every input before it looked for the part already in order.
func fullSort(vrps []VRP) []VRP {
	out := slices.Clone(vrps)
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return slices.Compact(out)
}

// inputShapes returns, by name, generators of every shape of input that
// normalization treats differently.
func inputShapes(rng *rand.Rand) map[string]func(n int) []VRP {
	one := randomVRPs(rng, 1)[0]
	return map[string]func(n int) []VRP{
		"random": func(n int) []VRP { return randomVRPs(rng, n) },
		"sorted": func(n int) []VRP { return fullSort(randomVRPs(rng, n)) },
		"sorted, unsorted tail": func(n int) []VRP {
			return append(fullSort(randomVRPs(rng, n)), randomVRPs(rng, rng.Intn(n+1))...)
		},
		"sorted with repeats": func(n int) []VRP {
			out := randomVRPs(rng, n)
			slices.SortFunc(out, VRP.Compare)
			return out
		},
		"reversed": func(n int) []VRP {
			out := fullSort(randomVRPs(rng, n))
			slices.Reverse(out)
			return out
		},
		"all equal": func(n int) []VRP { return slices.Repeat([]VRP{one}, n) },
	}
}

// TestNewSetMatchesFullSort holds NewSet, on every shape of input it treats
// differently, to the plain sort — and to leaving its input alone.
func TestNewSetMatchesFullSort(t *testing.T) {
	shapes := inputShapes(rand.New(rand.NewSource(15)))
	for name, shape := range shapes {
		for n := 0; n < 60; n++ {
			in := shape(n)
			before := slices.Clone(in)
			got := NewSet(in)
			if want := fullSort(in); !slices.Equal(got.VRPs(), want) {
				t.Fatalf("%s, %d tuples: NewSet(%v) = %v, want %v", name, n, in, got.VRPs(), want)
			}
			if !slices.Equal(in, before) {
				t.Fatalf("%s, %d tuples: NewSet reordered its input", name, n)
			}
			if n > 0 && &got.VRPs()[0] == &in[0] {
				t.Fatalf("%s, %d tuples: NewSet retained its input", name, n)
			}
		}
	}
}

// TestSortedSet holds SortedSet to NewSet on every shape of input: a
// strictly ascending list is taken as it is, and anything else — unsorted,
// or sorted with duplicates — is normalized into a new slice, the input left
// alone.
func TestSortedSet(t *testing.T) {
	for name, shape := range inputShapes(rand.New(rand.NewSource(18))) {
		for n := 0; n < 60; n++ {
			in := shape(n)
			before := slices.Clone(in)
			got := SortedSet(in)
			want := fullSort(in)
			if !slices.Equal(got.VRPs(), want) {
				t.Fatalf("%s, %d tuples: SortedSet(%v) = %v, want %v", name, n, in, got.VRPs(), want)
			}
			if !slices.Equal(in, before) {
				t.Fatalf("%s, %d tuples: SortedSet reordered its input", name, n)
			}
			if n == 0 {
				continue
			}
			if owned, asc := &got.VRPs()[0] == &in[0], slices.Equal(in, want); owned != asc {
				t.Fatalf("%s, %d tuples: SortedSet took its input: %v, input strictly ascending: %v", name, n, owned, asc)
			}
		}
	}
	sorted := fullSort(randomVRPs(rand.New(rand.NewSource(19)), 20))
	dup := slices.Insert(slices.Clone(sorted), 5, sorted[5])
	if got := SortedSet(dup); got.Len() != len(sorted) || &got.VRPs()[0] == &dup[0] {
		t.Fatalf("sorted input with one duplicate: %d tuples, want %d in a new slice", got.Len(), len(sorted))
	}
	// Compress hands over a list shorter than its capacity; an append to the
	// Set's tuples must not write into the rest.
	roomy := append(make([]VRP, 0, 2*len(sorted)), sorted...)
	if vrps := SortedSet(roomy).VRPs(); cap(vrps) != len(vrps) {
		t.Fatalf("SortedSet kept capacity %d past its %d tuples", cap(vrps), len(vrps))
	}
}

// TestSetAddMatchesFullSort: Add is a sorted head plus a tail in any order.
func TestSetAddMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 300; trial++ {
		base, more := randomVRPs(rng, rng.Intn(40)), randomVRPs(rng, rng.Intn(40))
		s := NewSet(base)
		s.Add(more...)
		if want := fullSort(append(base, more...)); !slices.Equal(s.VRPs(), want) {
			t.Fatalf("trial %d: %v plus %v = %v, want %v", trial, base, more, s.VRPs(), want)
		}
	}
	var zero Set
	zero.Add(randomVRPs(rng, 1)...)
	if zero.Len() != 1 {
		t.Fatalf("Add to the zero Set left %d tuples", zero.Len())
	}
}

// TestSetDiffMatchesMapReference checks Diff against set differences taken
// with maps, and that applying it to the one set gives the other.
func TestSetDiffMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		a, b := NewSet(randomVRPs(rng, rng.Intn(50))), NewSet(randomVRPs(rng, rng.Intn(50)))
		if trial%3 == 0 { // near-identical tables, the case Diff is for
			b = a.Clone()
			b.Add(randomVRPs(rng, rng.Intn(3))...)
		}
		only := func(have, other *Set) []VRP {
			in := make(map[VRP]bool, other.Len())
			for _, v := range other.VRPs() {
				in[v] = true
			}
			var out []VRP
			for _, v := range have.VRPs() {
				if !in[v] {
					out = append(out, v)
				}
			}
			return out
		}
		added, removed := a.Diff(b)
		if !slices.Equal(added, only(b, a)) || !slices.Equal(removed, only(a, b)) {
			t.Fatalf("trial %d: %v.Diff(%v) = +%v −%v", trial, a.VRPs(), b.VRPs(), added, removed)
		}
		applied := NewSet(append(only(a, NewSet(removed)), added...))
		if !applied.Equal(b) {
			t.Fatalf("trial %d: a − removed + added = %v, want %v", trial, applied.VRPs(), b.VRPs())
		}
		if added, removed := a.Diff(a); len(added)+len(removed) != 0 {
			t.Fatalf("trial %d: a.Diff(a) = +%v −%v", trial, added, removed)
		}
	}
}
