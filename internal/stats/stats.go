// Package stats provides the statistical primitives ARDA's filter-style
// feature selectors and random feature injection rely on: summary moments,
// Pearson correlation, ANOVA F statistics, binned mutual information, and samplers for the standard distributions used to
// inject synthetic noise features.
package stats

import (
	"math"
	"math/rand"
	"sort"
)

// Mean returns the arithmetic mean of xs, ignoring NaNs. It returns 0 for an
// all-NaN or empty slice.
func Mean(xs []float64) float64 {
	s, n := 0.0, 0
	for _, x := range xs {
		if !math.IsNaN(x) {
			s += x
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}

// Variance returns the population variance of xs, ignoring NaNs.
func Variance(xs []float64) float64 {
	mu := Mean(xs)
	s, n := 0.0, 0
	for _, x := range xs {
		if !math.IsNaN(x) {
			d := x - mu
			s += float64(d * d)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}

// StdDev returns the population standard deviation of xs, ignoring NaNs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Median returns the median of xs ignoring NaNs, or NaN when no values are
// present.
func Median(xs []float64) float64 {
	vals := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) {
			vals = append(vals, x)
		}
	}
	if len(vals) == 0 {
		return math.NaN()
	}
	sort.Float64s(vals)
	m := len(vals) / 2
	if len(vals)%2 == 1 {
		return vals[m]
	}
	return (vals[m-1] + vals[m]) / 2
}

// Pearson returns the Pearson correlation coefficient between x and y,
// skipping pairs where either value is NaN. It returns 0 when either series
// is constant.
func Pearson(x, y []float64) float64 {
	var sx, sy, sxx, syy, sxy float64
	n := 0
	for i := range x {
		if math.IsNaN(x[i]) || math.IsNaN(y[i]) {
			continue
		}
		sx += x[i]
		sy += y[i]
		sxx += float64(x[i] * x[i])
		syy += float64(y[i] * y[i])
		sxy += float64(x[i] * y[i])
		n++
	}
	if n < 2 {
		return 0
	}
	fn := float64(n)
	cov := sxy - sx*sy/fn
	vx := sxx - sx*sx/fn
	vy := syy - sy*sy/fn
	if vx <= 0 || vy <= 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}

// FRegression returns the F statistic of a univariate regression of y on x:
// F = r²/(1−r²)·(n−2), the statistic scikit-learn's f_regression computes.
func FRegression(x, y []float64) float64 {
	r := Pearson(x, y)
	n := float64(len(x))
	den := 1 - float64(r*r)
	if den <= 1e-12 {
		return math.Inf(1)
	}
	return r * r / den * (n - 2)
}

// FClassif returns the one-way ANOVA F statistic of feature x grouped by the
// integer class labels in y. NaN feature values are skipped.
func FClassif(x []float64, y []int, numClasses int) float64 {
	if numClasses < 2 {
		return 0
	}
	sums := make([]float64, numClasses)
	sqs := make([]float64, numClasses)
	counts := make([]int, numClasses)
	total, totalSq, n := 0.0, 0.0, 0
	for i, v := range x {
		if math.IsNaN(v) || y[i] < 0 || y[i] >= numClasses {
			continue
		}
		sums[y[i]] += v
		sqs[y[i]] += float64(v * v)
		counts[y[i]]++
		total += v
		totalSq += v * v
		n++
	}
	if n <= numClasses {
		return 0
	}
	grand := total / float64(n)
	ssBetween, ssWithin := 0.0, 0.0
	groups := 0
	for k := 0; k < numClasses; k++ {
		if counts[k] == 0 {
			continue
		}
		groups++
		mk := sums[k] / float64(counts[k])
		ssBetween += float64(float64(counts[k]) * (mk - grand) * (mk - grand))
		ssWithin += sqs[k] - sums[k]*sums[k]/float64(counts[k])
	}
	if groups < 2 {
		return 0
	}
	dfB := float64(groups - 1)
	dfW := float64(n - groups)
	if ssWithin <= 1e-12 {
		if ssBetween <= 1e-12 {
			return 0
		}
		return math.Inf(1)
	}
	return (ssBetween / dfB) / (ssWithin / dfW)
}

// EqualFrequencyBins assigns each value of x to one of up to maxBins
// equal-frequency bins, returning bin indices (NaNs get bin -1) and the
// number of bins actually used.
func EqualFrequencyBins(x []float64, maxBins int) ([]int, int) {
	type pair struct {
		v float64
		i int
	}
	pairs := make([]pair, 0, len(x))
	for i, v := range x {
		if !math.IsNaN(v) {
			pairs = append(pairs, pair{v, i})
		}
	}
	bins := make([]int, len(x))
	for i := range bins {
		bins[i] = -1
	}
	if len(pairs) == 0 {
		return bins, 0
	}
	sort.Slice(pairs, func(a, b int) bool { return pairs[a].v < pairs[b].v })
	k := maxBins
	if k > len(pairs) {
		k = len(pairs)
	}
	// Quantile cut points; duplicates collapse so binning is a pure function
	// of the value even with heavy ties.
	var cuts []float64
	for b := 1; b < k; b++ {
		c := pairs[b*len(pairs)/k].v
		if len(cuts) == 0 || c > cuts[len(cuts)-1] {
			cuts = append(cuts, c)
		}
	}
	for _, p := range pairs {
		// Upper bound: bin = number of cuts <= v (cuts are deduplicated).
		b := sort.SearchFloat64s(cuts, p.v)
		if b < len(cuts) && cuts[b] == p.v {
			b++
		}
		bins[p.i] = b
	}
	return bins, len(cuts) + 1
}

// MutualInformation estimates the mutual information (in nats) between
// discretized feature bins xb (with nx states) and labels y (with ny states).
// Entries with negative bin or label are skipped.
func MutualInformation(xb []int, nx int, y []int, ny int) float64 {
	if nx <= 0 || ny <= 0 {
		return 0
	}
	joint := make([]float64, nx*ny)
	px := make([]float64, nx)
	py := make([]float64, ny)
	n := 0.0
	for i := range xb {
		if xb[i] < 0 || y[i] < 0 || xb[i] >= nx || y[i] >= ny {
			continue
		}
		joint[xb[i]*ny+y[i]]++
		px[xb[i]]++
		py[y[i]]++
		n++
	}
	if n == 0 {
		return 0
	}
	mi := 0.0
	for a := 0; a < nx; a++ {
		for b := 0; b < ny; b++ {
			j := joint[a*ny+b]
			if j == 0 {
				continue
			}
			mi += float64(j / n * math.Log(j*n/(px[a]*py[b])))
		}
	}
	if mi < 0 {
		mi = 0
	}
	return mi
}

// Distribution identifies one of the standard noise distributions the paper
// uses for random feature injection.
type Distribution int

const (
	// Normal is the standard normal distribution N(0, 1).
	Normal Distribution = iota
	// Bernoulli is the Bernoulli(p) distribution with random p.
	Bernoulli
	// Uniform is the uniform distribution on a random interval.
	Uniform
	// Poisson is the Poisson(λ) distribution with random λ.
	Poisson
)

// SampleColumn draws an n-vector from the distribution, with per-column
// randomly-initialized parameters as in the paper's micro benchmarks.
func SampleColumn(d Distribution, n int, rng *rand.Rand) []float64 {
	out := make([]float64, n)
	SampleColumnInto(d, rng, out)
	return out
}

// SampleColumnInto is SampleColumn writing into a caller-owned buffer: it
// draws the same random stream and fully overwrites out, so reusing a
// scratch column across draws cannot change a single value.
func SampleColumnInto(d Distribution, rng *rand.Rand, out []float64) {
	switch d {
	case Normal:
		mu := rng.NormFloat64()
		sigma := 0.5 + float64(rng.Float64())*2 // x*2 is x+x: round Float64's own product
		for i := range out {
			out[i] = mu + float64(sigma*rng.NormFloat64())
		}
	case Bernoulli:
		p := 0.1 + float64(0.8*rng.Float64())
		for i := range out {
			if rng.Float64() < p {
				out[i] = 1
			} else {
				out[i] = 0
			}
		}
	case Uniform:
		lo := rng.NormFloat64() * 2
		width := 0.5 + float64(rng.Float64()*4)
		for i := range out {
			out[i] = lo + float64(width*rng.Float64())
		}
	case Poisson:
		lambda := 0.5 + float64(rng.Float64()*9.5)
		for i := range out {
			out[i] = float64(poisson(lambda, rng))
		}
	default:
		for i := range out {
			out[i] = 0
		}
	}
}

// poisson draws a Poisson(lambda) variate with Knuth's method (adequate for
// the small lambdas used in noise injection).
func poisson(lambda float64, rng *rand.Rand) int {
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 10000 {
			return k
		}
	}
}
