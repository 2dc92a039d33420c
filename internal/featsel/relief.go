package featsel

import (
	"math"
	"sort"

	"github.com/arda-ml/arda/internal/ml"
)

// ReliefRanker implements ReliefF for classification and RReliefF for
// regression: features are weighted by how well they separate each sampled
// instance from its nearest misses relative to its nearest hits.
type ReliefRanker struct {
	// K is the number of nearest hits/misses per instance (default 10).
	K int
	// Samples is the number of instances sampled (default min(n, 200)).
	Samples int
}

// Name implements Ranker.
func (r *ReliefRanker) Name() string { return "relief" }

// Supports implements Ranker: both tasks.
func (r *ReliefRanker) Supports(ml.Task) bool { return true }

// Rank implements Ranker.
func (r *ReliefRanker) Rank(ds *ml.Dataset, seed int64) ([]float64, error) {
	k := r.K
	if k <= 0 {
		k = 10
	}
	m := r.Samples
	if m <= 0 {
		m = 200
	}
	if m > ds.N {
		m = ds.N
	}
	ranges := featureRanges(ds)
	rng := newRNG(seed)
	sample := rng.Perm(ds.N)[:m]

	if ds.Task == ml.Classification {
		return reliefF(ds, sample, k, ranges), nil
	}
	return rreliefF(ds, sample, k, ranges), nil
}

// featureRanges returns max−min per feature (1 for constant features) for
// diff normalization.
func featureRanges(ds *ml.Dataset) []float64 {
	out := make([]float64, ds.D)
	for j := 0; j < ds.D; j++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < ds.N; i++ {
			v := ds.At(i, j)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if hi-lo > 1e-12 {
			out[j] = hi - lo
		} else {
			out[j] = 1
		}
	}
	return out
}

// neighborsOf returns the indices of the k nearest rows to row i (excluding
// i itself) under range-normalized Manhattan distance, optionally filtered by
// a predicate.
func neighborsOf(ds *ml.Dataset, ranges []float64, i, k int, keep func(j int) bool) []int {
	type cand struct {
		j int
		d float64
	}
	cands := make([]cand, 0, ds.N)
	ri := ds.Row(i)
	for j := 0; j < ds.N; j++ {
		if j == i || (keep != nil && !keep(j)) {
			continue
		}
		rj := ds.Row(j)
		dist := 0.0
		for f := 0; f < ds.D; f++ {
			dist += math.Abs(ri[f]-rj[f]) / ranges[f]
		}
		cands = append(cands, cand{j, dist})
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].d < cands[b].d })
	if k > len(cands) {
		k = len(cands)
	}
	out := make([]int, k)
	for p := 0; p < k; p++ {
		out[p] = cands[p].j
	}
	return out
}

// reliefF is the multiclass ReliefF update of Kononenko.
func reliefF(ds *ml.Dataset, sample []int, k int, ranges []float64) []float64 {
	w := make([]float64, ds.D)
	prior := make([]float64, ds.Classes)
	for i := 0; i < ds.N; i++ {
		prior[ds.Label(i)]++
	}
	for c := range prior {
		prior[c] /= float64(ds.N)
	}
	mk := float64(len(sample) * k)
	for _, i := range sample {
		yi := ds.Label(i)
		hits := neighborsOf(ds, ranges, i, k, func(j int) bool { return ds.Label(j) == yi })
		for _, h := range hits {
			rh := ds.Row(h)
			ri := ds.Row(i)
			for f := 0; f < ds.D; f++ {
				w[f] -= math.Abs(ri[f]-rh[f]) / ranges[f] / mk
			}
		}
		for c := 0; c < ds.Classes; c++ {
			if c == yi || prior[c] == 0 {
				continue
			}
			weight := prior[c] / (1 - prior[yi])
			misses := neighborsOf(ds, ranges, i, k, func(j int) bool { return ds.Label(j) == c })
			for _, ms := range misses {
				rm := ds.Row(ms)
				ri := ds.Row(i)
				for f := 0; f < ds.D; f++ {
					w[f] += weight * math.Abs(ri[f]-rm[f]) / ranges[f] / mk
				}
			}
		}
	}
	return w
}

// rreliefF is the regression variant (Robnik-Šikonja & Kononenko): feature
// weight = P(diff feature | diff target)·P(diff target) decomposition using
// accumulated soft counts over the k nearest neighbours.
func rreliefF(ds *ml.Dataset, sample []int, k int, ranges []float64) []float64 {
	yLo, yHi := math.Inf(1), math.Inf(-1)
	for _, y := range ds.Y {
		if y < yLo {
			yLo = y
		}
		if y > yHi {
			yHi = y
		}
	}
	yRange := yHi - yLo
	if yRange <= 1e-12 {
		yRange = 1
	}
	ndc := 0.0
	nda := make([]float64, ds.D)
	ndcda := make([]float64, ds.D)
	for _, i := range sample {
		nn := neighborsOf(ds, ranges, i, k, nil)
		ri := ds.Row(i)
		for _, j := range nn {
			rj := ds.Row(j)
			dy := math.Abs(ds.Y[i]-ds.Y[j]) / yRange
			ndc += dy
			for f := 0; f < ds.D; f++ {
				da := math.Abs(ri[f]-rj[f]) / ranges[f]
				nda[f] += da
				ndcda[f] += float64(dy * da)
			}
		}
	}
	w := make([]float64, ds.D)
	total := float64(len(sample) * k)
	for f := 0; f < ds.D; f++ {
		if ndc > 0 && total-ndc > 0 {
			w[f] = ndcda[f]/ndc - (nda[f]-ndcda[f])/(total-ndc)
		}
	}
	return w
}
