package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between the two nearest order statistics. It sorts a copy.
// An empty sample has no quantile; the caller decides what that means, so
// it is NaN here rather than a silent zero.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// rel normalises an operation statistic by the reference's same statistic.
// The reference round trip is interleaved with the operations it divides,
// so a machine-wide slowdown moves both and cancels.
func rel(op, ref float64) float64 {
	if ref <= 0 || math.IsNaN(ref) {
		return math.NaN()
	}
	return op / ref
}

// ratio is a/b with 0 for an empty denominator: per-layer ratios over a
// workload that never exercises the layer read 0, not NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quartiles returns the first quartile, median and third quartile with the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), which is
// what the acceptance check uses for run-to-run spread.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return math.NaN(), math.NaN(), math.NaN()
	}
	at := func(i int) float64 {
		// position i*(n+1)/4 in 1-based order statistics
		pos := float64(i) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := pos - float64(j)
		return s[j-1] + delta*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// Block statistics. A run's noise is not only slow drift, which dividing by
// the reference cancels, but bursts: a second or two in which the tails of
// both distributions swell, not in proportion. One burst moves a whole-phase
// p95 of the operations and of the reference by different amounts. So a
// normalised statistic is taken block by block — contiguous stretches of the
// measured phase holding equal numbers of the class's samples, each divided
// by the same statistic of the reference requests interleaved with that
// stretch — and the median of the blocks is reported, which a burst that
// spoils a minority of blocks does not move.
const (
	// A block holds at least this many of the class's samples: enough for
	// a median or a mean, and enough for a p95 to have two dozen beyond it.
	blockSamples    = 200
	blockSamplesP95 = 500
	maxBlocks       = 15
)

// series is a class's latencies in the order they were measured, each with
// the number of measured requests issued before it.
type series struct {
	us []float64
	at []int
}

func (s *series) add(at int, us float64) {
	s.us = append(s.us, us)
	s.at = append(s.at, at)
}

// between returns the samples taken at positions in [from, to).
func (s *series) between(from, to int) []float64 {
	lo := sort.SearchInts(s.at, from)
	hi := sort.SearchInts(s.at, to)
	return s.us[lo:hi]
}

// blockRel is the median over blocks of stat(ops in block) ÷ stat(reference
// requests in block). With fewer than two blocks' worth of samples it is the
// whole-phase ratio.
func blockRel(ops, ref *series, stat func([]float64) float64, perBlock int) float64 {
	n := len(ops.us)
	blocks := min(n/perBlock, maxBlocks)
	if blocks < 2 {
		return rel(stat(ops.us), stat(ref.us))
	}
	ratios := make([]float64, 0, blocks)
	from := 0
	for b := 1; b <= blocks; b++ {
		end := b * n / blocks // this block is ops.us[start:end]
		start := (b - 1) * n / blocks
		to := math.MaxInt
		if b < blocks {
			to = ops.at[end] // up to where the next block's first sample was taken
		}
		if refs := ref.between(from, to); len(refs) > 0 {
			ratios = append(ratios, rel(stat(ops.us[start:end]), stat(refs)))
		}
		from = to
	}
	return median(ratios)
}

func p95(xs []float64) float64 { return percentile(xs, 0.95) }
