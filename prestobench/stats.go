package main

import (
	"math"
	"sort"

	"presto/internal/stats"
)

// quantile is stats.Quantile with an empty sample as NaN, which
// report.set books as "no samples".
func quantile(xs []float64, q float64) float64 {
	v, err := stats.Quantile(xs, q)
	if err != nil {
		return math.NaN()
	}
	return v
}

// Blocking steadies a run's figures against transient stalls of a
// shared host: samples (in completion order) are cut into consecutive
// blocks, and a figure is the median of the blocks' values. A p99 block
// holds at least tailBlock samples, so ten or more lie beyond each
// block's percentile; a median uses up to medianBlocks blocks of at
// least minBlock samples.
const (
	tailBlock    = 1000
	medianBlocks = 10
	minBlock     = 30
)

// blocked returns the median over k consecutive equal blocks of xs of
// each block's q-quantile; k <= 1 is the plain quantile.
func blocked(xs []float64, q float64, k int) float64 {
	if k <= 1 {
		return quantile(xs, q)
	}
	per := make([]float64, k)
	for b := 0; b < k; b++ {
		per[b] = quantile(xs[b*len(xs)/k:(b+1)*len(xs)/k], q)
	}
	return median(per)
}

// p50Blocks and p99Blocks size the blocking for a sample count.
func p50Blocks(n int) int { return min(medianBlocks, n/minBlock) }
func p99Blocks(n int) int { return n / tailBlock }

// blockRate is a closed loop's completion rate per second: done (the
// completion times in seconds since the phase start) is cut into k
// consecutive blocks of equal count, each block's rate is its count over
// the time since the previous block ended, and the figure is the median
// block's rate, so a block the host stole from does not drag it.
func blockRate(done []float64, k int) float64 {
	if len(done) < k {
		return math.NaN()
	}
	ts := append([]float64(nil), done...)
	sort.Float64s(ts)
	rates := make([]float64, k)
	prev := 0.0
	for b := range rates {
		lo, hi := b*len(ts)/k, (b+1)*len(ts)/k
		rates[b] = float64(hi-lo) / (ts[hi-1] - prev)
		prev = ts[hi-1]
	}
	return median(rates)
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) computes them (the "exclusive"
// method), so the repeat report matches the acceptance arithmetic.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		if n == 1 {
			return xs[0], xs[0]
		}
		return math.NaN(), math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// ratio is num/den, 0 when the base is empty.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// msOf converts nanoseconds to milliseconds.
func msOf(ns int64) float64 { return float64(ns) / 1e6 }

// usOf converts nanoseconds to microseconds.
func usOf(ns int64) float64 { return float64(ns) / 1e3 }
