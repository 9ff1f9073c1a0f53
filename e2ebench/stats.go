package main

import (
	"math"
	"sort"
	"time"
)

// samples is one timing series in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, ms(d)) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quantile returns the nearest-rank q-quantile (0 < q <= 1): the
// smallest sample with at least a q share of the samples at or below
// it. An empty series has no quantile and yields 0.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	sorted := append([]float64(nil), s...)
	sort.Float64s(sorted)
	return sorted[rankIndex(len(s), q)]
}

// rankIndex is the zero-based index of the nearest-rank q-quantile in a
// sorted series of n samples.
func rankIndex(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// beyond counts the samples ranked after the q-quantile: the tail that
// the quantile's estimate rests on. A p90 needs at least ten of them.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rankIndex(n, q)
}

// minSamplesFor is the smallest series length that leaves at least tail
// samples beyond the q-quantile.
func minSamplesFor(q float64, tail int) int {
	n := 1
	for beyond(n, q) < tail {
		n++
	}
	return n
}

func median(s []float64) float64 { return quantile(s, 0.5) }

func sum(s []float64) float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

func mean(s []float64) float64 {
	if len(s) == 0 {
		return 0
	}
	return sum(s) / float64(len(s))
}

// ratio divides, reading a zero denominator as "nothing to compare"
// rather than as an infinity that would poison a JSON report.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
