package rov

import (
	"sync"

	"repro/internal/prefix"
)

// CompactIndex is another name for Index, kept with CompactFromIndex for
// callers that name a validator by it: every snapshot carries the radix root
// a compact read side would add.
type CompactIndex = Index

// CompactFromIndex returns ix: every snapshot is what a compact index was.
func CompactFromIndex(ix *Index) *CompactIndex { return ix }

// sortBits is the radix width of ValidateBatchSorted's bucket pass: routes
// are grouped by family and top address bits so the batch walks the radix
// root and node slab region by region instead of hopping randomly. 11 bits
// keeps the counter array at 16KB — resident in L1 while counting.
const sortBits = 11

// sortedBatchMin is the batch size below which the bucket pass costs more
// than the locality it buys; smaller batches take the plain loop.
const sortedBatchMin = 256

// ValidateBatchSorted is ValidateBatch with a sort-by-prefix pass: a two-pass
// counting sort on (family, top address bits) produces a permutation, and
// validation runs in permuted order while results land at their original
// positions. Batches over a table larger than the cache hierarchy touch each
// slab region once instead of per route. The output is identical to
// ValidateBatch; the permutation is the one extra allocation
// (TestValidateAllocs pins it at exactly one).
func (ix *Index) ValidateBatchSorted(routes []Route, dst []State) []State {
	if len(routes) < sortedBatchMin {
		return ix.ValidateBatch(routes, dst)
	}
	if cap(dst) < len(routes) {
		dst = make([]State, len(routes))
	} else {
		dst = dst[:len(routes)]
	}
	key := func(q Route) int32 {
		hi, _ := q.Prefix.Bits()
		k := int32(hi >> (64 - sortBits))
		if famSlot(q.Prefix.Family()) == 1 {
			k |= 1 << sortBits
		}
		return k
	}
	var starts [2 << sortBits]int32
	for _, q := range routes {
		starts[key(q)]++
	}
	sum := int32(0)
	for i := range starts {
		c := starts[i]
		starts[i] = sum
		sum += c
	}
	perm := make([]int32, len(routes))
	for i, q := range routes {
		k := key(q)
		perm[starts[k]] = int32(i)
		starts[k]++
	}
	f4, f6, entries := &ix.fams[0], &ix.fams[1], ix.entries
	for _, ri := range perm {
		q := routes[ri]
		switch q.Prefix.Family() {
		case prefix.IPv4:
			dst[ri] = validate4(f4, entries, q.Prefix, q.Origin, f4.slotRoot(q.Prefix))
		case prefix.IPv6:
			dst[ri] = f6.validate(entries, q.Prefix, q.Origin, f6.slotRoot(q.Prefix))
		default:
			dst[ri] = NotFound
		}
	}
	return dst
}

// batchBlock is the parallel batch work-unit size: big enough that channel
// handoff cost vanishes, small enough to level skew between workers.
const batchBlock = 512

// ValidateBatchParallel is ValidateBatch fanned out over a fixed pool of
// min(workers, blocks) goroutines draining route blocks from a channel — the
// Compress worker-pool pattern. Workers write disjoint dst ranges, so the
// result is identical to the serial batch. Values < 2 (or batches of one
// block) run serially.
func (ix *Index) ValidateBatchParallel(routes []Route, dst []State, workers int) []State {
	if cap(dst) < len(routes) {
		dst = make([]State, len(routes))
	} else {
		dst = dst[:len(routes)]
	}
	blocks := (len(routes) + batchBlock - 1) / batchBlock
	if workers > blocks {
		workers = blocks
	}
	if workers < 2 {
		return ix.ValidateBatch(routes, dst)
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for lo := range jobs {
				hi := min(lo+batchBlock, len(routes))
				ix.ValidateBatch(routes[lo:hi], dst[lo:hi])
			}
		}()
	}
	for lo := 0; lo < len(routes); lo += batchBlock {
		jobs <- lo
	}
	close(jobs)
	wg.Wait()
	return dst
}
