package core

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/rpki"
	"repro/internal/synth"
)

// Relying-party micro-benchmarks: Figure 2's Trie and the kernels that run
// without it. All report allocations, so a Trie build stays visible as
// O(slab growths), not one heap node per prefix bit, and Compress and the
// verifier as a few allocations a run, not one a group or a tuple.

// benchVRPs returns roughly n VRPs (across the three origin ASes randomSet
// draws from) with mergeable sibling structure, deterministic across runs.
func benchVRPs(n int) []rpki.VRP {
	rng := rand.New(rand.NewSource(42))
	set := randomSet(rng, n)
	return set.VRPs()
}

func BenchmarkTrieInsert(b *testing.B) {
	vrps := benchVRPs(1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := NewTrie(0, vrps[0].Prefix.Family())
		for _, v := range vrps {
			tr.Insert(v.Prefix, v.MaxLength)
		}
		tr.Release()
	}
}

func BenchmarkBuildTries(b *testing.B) {
	s := rpki.NewSet(benchVRPs(2000))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ReleaseTries(BuildTries(s))
	}
}

func BenchmarkTrieLookup(b *testing.B) {
	vrps := benchVRPs(1000)
	tr := NewTrie(0, vrps[0].Prefix.Family())
	for _, v := range vrps {
		tr.Insert(v.Prefix, v.MaxLength)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := vrps[i%len(vrps)]
		tr.Lookup(v.Prefix)
		tr.Authorizes(v.Prefix)
	}
}

func BenchmarkTrieTuples(b *testing.B) {
	vrps := benchVRPs(1000)
	tr := NewTrie(0, vrps[0].Prefix.Family())
	for _, v := range vrps {
		tr.Insert(v.Prefix, v.MaxLength)
	}
	dst := make([]rpki.VRP, 0, tr.Size())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = tr.Tuples(dst[:0])
	}
}

func BenchmarkTrieCountAuthorized(b *testing.B) {
	vrps := benchVRPs(1000)
	tr := NewTrie(0, vrps[0].Prefix.Family())
	for _, v := range vrps {
		tr.Insert(v.Prefix, v.MaxLength)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.CountAuthorized()
	}
}

func BenchmarkCompressStrict(b *testing.B) {
	s := rpki.NewSet(benchVRPs(2000))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compress(s, Options{})
	}
}

func BenchmarkCompressSubsumption(b *testing.B) {
	s := rpki.NewSet(benchVRPs(2000))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compress(s, Options{Subsumption: true})
	}
}

func BenchmarkSemanticEqual(b *testing.B) {
	s := rpki.NewSet(benchVRPs(2000))
	out, _ := Compress(s, Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ok, ce := SemanticEqual(s, out); !ok {
			b.Fatal(ce)
		}
	}
}

// BenchmarkFullDeploymentMinimal measures cache_refresh's first set-up step:
// the minimal set of a quarter-scale 6/1/2017 table (194,237 routes), read
// off the table's (origin, prefix) order.
func BenchmarkFullDeploymentMinimal(b *testing.B) {
	table := synth.Generate(synth.Params6_1().Scale(0.25)).Table
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FullDeploymentMinimal(table)
	}
}

// fullDeployment is cache_refresh's input: the full-deployment minimal set
// of a quarter-scale 6/1/2017 table (194,237 tuples in 16,045 groups), and
// its compression, which rewrites 759 of the groups (23,804 tuples of the
// two sides). Built once, on first use.
var fullDeployment = sync.OnceValues(func() (minimal, compressed *rpki.Set) {
	minimal = FullDeploymentMinimal(synth.Generate(synth.Params6_1().Scale(0.25)).Table)
	compressed, _ = Compress(minimal, Options{})
	return minimal, compressed
})

func BenchmarkCompressFullDeployment(b *testing.B) {
	minimal, _ := fullDeployment()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compress(minimal, Options{})
	}
}

func BenchmarkVerifyFullDeployment(b *testing.B) {
	minimal, compressed := fullDeployment()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := VerifyCompression(minimal, compressed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerifyFullDeploymentDiffers prices the failure path: the pair
// BenchmarkVerifyFullDeployment verifies with one maxLength lowered in the
// last group Compress rewrote, so the walk runs to that group and returns a
// counterexample.
func BenchmarkVerifyFullDeploymentDiffers(b *testing.B) {
	minimal, compressed := fullDeployment()
	origGroups, compGroups := groupsOf(minimal), groupsOf(compressed)
	vrps, off, at := slices.Clone(compressed.VRPs()), 0, -1
	for k, g := range compGroups {
		if !slices.Equal(g.VRPs, origGroups[k].VRPs) {
			for i, x := range g.VRPs {
				if x.MaxLength > x.Prefix.Len() {
					at = off + i
				}
			}
		}
		off += len(g.VRPs)
	}
	vrps[at].MaxLength--
	differs := rpki.NewSet(vrps)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ok, _ := SemanticEqual(minimal, differs); ok {
			b.Fatal("a lowered maxLength went unnoticed")
		}
	}
}
