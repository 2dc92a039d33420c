package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle of xs (mean of the two middle values for an even
// count) and 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	return percentile(xs, 0.5)
}

// percentile returns the q-quantile of xs by linear interpolation between
// order statistics (the "inclusive" method: q=0 is the minimum, q=1 the
// maximum). xs is not modified; an empty slice yields 0.
func percentile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// percentileEligible applies the reporting rule from the choosing-metrics
// guide: a percentile is reported only when at least ten samples lie beyond
// it, so p90 needs 100 samples and p99 needs 1000.
func percentileEligible(n int, q float64) bool {
	return float64(n)*(1-q) >= 10-1e-9
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is num/den, or 0 when nothing was attempted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// worseBy is how much worse b is than a, as a share of |a|, in the metric's
// own direction ("lower" or "higher" is better). Negative means b is better.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		switch {
		case b == 0:
			return 0
		case (better == "lower") == (b > 0):
			return math.Inf(1)
		default:
			return math.Inf(-1)
		}
	}
	d := (b - a) / math.Abs(a)
	if better == "higher" {
		d = -d
	}
	return d
}
