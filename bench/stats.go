package main

import (
	"math"
	"sort"
)

// minBeyond is the reporting rule for tail percentiles: a percentile is
// stated only when at least this many samples lie beyond it, so one outlier
// cannot be the number.
const minBeyond = 10

// median returns the middle of xs (mean of the two middles for even n), or
// 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return medianSorted(s)
}

func medianSorted(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentileSorted returns the nearest-rank p-th percentile (0 < p < 1) of
// the ascending slice s. ok is false — and the value 0 — when fewer than
// minBeyond samples lie strictly beyond the returned rank.
func percentileSorted(s []float64, p float64) (v float64, ok bool) {
	if len(s)-nearestRank(len(s), p) < minBeyond {
		return 0, false
	}
	return s[nearestRank(len(s), p)-1], true
}

// nearestRank is the 1-based rank of the p-th percentile among n samples.
func nearestRank(n int, p float64) int {
	return max(1, int(math.Ceil(p*float64(n))))
}

// percentile is percentileSorted over an unsorted slice, which it leaves
// untouched.
func percentile(xs []float64, p float64) (float64, bool) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

// sample is one measured value stamped with the instant (ns from the phase
// start) that decides which segment of the timed phase it belongs to.
type sample struct {
	at int64
	v  float64
}

// segmented is a statistic reported as the median of per-segment values,
// with the relative range across segments beside it.
type segmented struct {
	value  float64 // median of the per-segment values
	spread float64 // (max − min) / median across segments
	n      int     // samples that fell inside [0, length)
}

// segmentStat splits [0, length) into nseg equal segments, reduces each
// segment's samples with f, multiplies the result by scale(from, to) of the
// segment's window when scale is not nil (the reference clock's correction:
// see ref.go), and reports the median of the segment values. Segments with
// no samples are skipped; samples outside the window are ignored.
func segmentStat(samples []sample, length int64, nseg int, f func([]float64) float64, scale func(from, to int64) float64) segmented {
	if length <= 0 || nseg <= 0 {
		return segmented{}
	}
	buckets := make([][]float64, nseg)
	n := 0
	for _, s := range samples {
		if s.at < 0 || s.at >= length {
			continue
		}
		i := int(s.at * int64(nseg) / length)
		buckets[i] = append(buckets[i], s.v)
		n++
	}
	var vals []float64
	for i, b := range buckets {
		if len(b) == 0 {
			continue
		}
		v := f(b)
		if scale != nil {
			v *= scale(int64(i)*length/int64(nseg), int64(i+1)*length/int64(nseg))
		}
		vals = append(vals, v)
	}
	return segmented{value: median(vals), spread: relRange(vals), n: n}
}

// relRange is (max − min) / median, the spread printed beside a median of
// segment values; 0 when it is undefined.
func relRange(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals[1:] {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	m := median(vals)
	if m == 0 {
		return 0
	}
	return (hi - lo) / m
}

// p99Unchecked is the per-segment reducer for tail metrics: the ≥minBeyond
// rule is applied once to the pooled samples by the caller, not per segment.
func p99Unchecked(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[nearestRank(len(s), 0.99)-1]
}

// segmentRate is segmentStat for throughput: each sample stands for
// perSample units of work, and a segment's value is its units per second.
func segmentRate(samples []sample, length int64, nseg int, perSample float64, scale func(from, to int64) float64) segmented {
	segSeconds := float64(length) / float64(nseg) / 1e9
	return segmentStat(samples, length, nseg, func(xs []float64) float64 {
		return float64(len(xs)) * perSample / segSeconds
	}, scale)
}

// values projects the sample values.
func values(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.v
	}
	return out
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median — the run-to-run spread the benchmark contract is
// judged by. Quartiles follow Python's statistics.quantiles(xs, n=4)
// (exclusive method), so the harness and the driver agree on the number.
// It needs at least two values and a non-zero median; otherwise 0.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		j := max(1, min(i*(n+1)/4, n-1))
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	m := medianSorted(s)
	if m == 0 {
		return 0
	}
	return math.Abs(quartile(3)-quartile(1)) / math.Abs(m)
}
