package ml

import (
	"math"
	"math/rand"
	"sort"
)

// This file freezes the original per-node sorting CART kernel as the
// reference the live kernel (tree.go, splitset.go) is validated against:
// where the live kernel presorts each feature once and partitions the orders
// down the tree, this one re-sorts the node's samples per candidate feature
// through sort.Slice. Classification trees must match bit-for-bit; see
// splitkernel_test.go.

// refFitForest is FitForest over the reference kernel: the same defaulting,
// the same Seed + t·7919 per-tree RNG, the same n-draw bootstrap followed by
// tree growth on that stream, the same importance aggregation.
func refFitForest(ds *Dataset, cfg ForestConfig) *Forest {
	cfg, tc := resolveForestConfig(ds, cfg)
	f := &Forest{Trees: make([]*Tree, cfg.NTrees), task: ds.Task, classes: ds.Classes}
	for t := range f.Trees {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(t)*7919))
		idx := make([]int, ds.N)
		for i := range idx {
			idx[i] = rng.Intn(ds.N)
		}
		f.Trees[t] = fitTreeLegacy(ds, idx, tc, rng)
	}
	aggregateImportances(f, ds.D)
	return f
}

// legacyTreeBuilder holds mutable state for growing one tree with the
// sort-per-node kernel.
type legacyTreeBuilder struct {
	ds     *Dataset
	cfg    TreeConfig
	rng    *rand.Rand
	tree   *Tree
	counts []float64 // class-count scratch (classification)
	order  []int     // scratch for per-node feature sort
	feats  []int     // feature indices for MTry shuffles
}

// fitTreeLegacy grows a CART tree over the samples indexed by idx (all
// samples if idx is nil) using the original sort-per-node kernel.
func fitTreeLegacy(ds *Dataset, idx []int, cfg TreeConfig, rng *rand.Rand) *Tree {
	if cfg.MinLeaf <= 0 {
		cfg.MinLeaf = 1
	}
	if idx == nil {
		idx = make([]int, ds.N)
		for i := range idx {
			idx[i] = i
		}
	}
	b := &legacyTreeBuilder{
		ds:   ds,
		cfg:  cfg,
		rng:  rng,
		tree: &Tree{importance: make([]float64, ds.D)},
	}
	if ds.Task == Classification {
		b.counts = make([]float64, ds.Classes)
	}
	b.feats = make([]int, ds.D)
	for j := range b.feats {
		b.feats[j] = j
	}
	work := make([]int, len(idx))
	copy(work, idx)
	b.grow(work, 0)
	return b.tree
}

// grow recursively builds the subtree over samples and returns its node index.
func (b *legacyTreeBuilder) grow(samples []int, depth int) int32 {
	node := treeNode{feature: -1}
	imp, value := b.nodeStats(samples)
	node.value = value
	id := int32(len(b.tree.nodes))
	b.tree.nodes = append(b.tree.nodes, node)

	if imp <= 1e-12 || len(samples) < 2*b.cfg.MinLeaf ||
		(b.cfg.MaxDepth > 0 && depth >= b.cfg.MaxDepth) {
		return id
	}
	// Zero-gain splits are allowed (impurity gain is non-negative for
	// concave criteria, and e.g. XOR's first split has exactly zero gain).
	feat, thr, gain := b.bestSplit(samples, imp)
	if feat < 0 || gain < 0 {
		return id
	}
	// Partition samples in place around the threshold.
	lo, hi := 0, len(samples)
	for lo < hi {
		if b.ds.At(samples[lo], feat) <= thr {
			lo++
		} else {
			hi--
			samples[lo], samples[hi] = samples[hi], samples[lo]
		}
	}
	if lo == 0 || lo == len(samples) {
		return id
	}
	b.tree.importance[feat] += gain * float64(len(samples))
	left := b.grow(samples[:lo], depth+1)
	right := b.grow(samples[lo:], depth+1)
	b.tree.nodes[id].feature = feat
	b.tree.nodes[id].threshold = thr
	b.tree.nodes[id].left = left
	b.tree.nodes[id].right = right
	return id
}

// nodeStats returns the node impurity (Gini for classification, variance for
// regression) and the node prediction.
func (b *legacyTreeBuilder) nodeStats(samples []int) (imp, value float64) {
	n := float64(len(samples))
	if b.ds.Task == Classification {
		for k := range b.counts {
			b.counts[k] = 0
		}
		for _, i := range samples {
			b.counts[b.ds.Label(i)]++
		}
		gini := 1.0
		best, bestK := -1.0, 0
		for k, c := range b.counts {
			p := c / n
			gini -= p * p
			if c > best {
				best, bestK = c, k
			}
		}
		return gini, float64(bestK)
	}
	sum, sumSq := 0.0, 0.0
	for _, i := range samples {
		y := b.ds.Y[i]
		sum += y
		sumSq += y * y
	}
	mean := sum / n
	return sumSq/n - mean*mean, mean
}

// bestSplit scans MTry candidate features and returns the best (feature,
// threshold, impurity gain).
func (b *legacyTreeBuilder) bestSplit(samples []int, parentImp float64) (int, float64, float64) {
	mtry := b.cfg.MTry
	if mtry <= 0 || mtry > b.ds.D {
		mtry = b.ds.D
	}
	if mtry < b.ds.D {
		// Partial Fisher-Yates: draw mtry distinct features.
		for j := 0; j < mtry; j++ {
			k := j + b.rng.Intn(b.ds.D-j)
			b.feats[j], b.feats[k] = b.feats[k], b.feats[j]
		}
	}
	if cap(b.order) < len(samples) {
		b.order = make([]int, len(samples))
	}
	order := b.order[:len(samples)]

	bestFeat, bestThr, bestGain := -1, 0.0, math.Inf(-1)
	for f := 0; f < mtry; f++ {
		feat := b.feats[f]
		copy(order, samples)
		sort.Slice(order, func(a, c int) bool {
			return b.ds.At(order[a], feat) < b.ds.At(order[c], feat)
		})
		thr, gain := b.scanSplits(order, feat, parentImp)
		if gain > bestGain {
			bestFeat, bestThr, bestGain = feat, thr, gain
		}
	}
	return bestFeat, bestThr, bestGain
}

// scanSplits sweeps sorted samples for feature feat and returns the best
// threshold and gain.
func (b *legacyTreeBuilder) scanSplits(order []int, feat int, parentImp float64) (float64, float64) {
	n := len(order)
	fn := float64(n)
	minLeaf := b.cfg.MinLeaf
	bestThr, bestGain := 0.0, math.Inf(-1)

	if b.ds.Task == Classification {
		k := b.ds.Classes
		leftCnt := make([]float64, k)
		rightCnt := make([]float64, k)
		for _, i := range order {
			rightCnt[b.ds.Label(i)]++
		}
		leftSq, rightSq := 0.0, 0.0
		for _, c := range rightCnt {
			rightSq += c * c
		}
		for pos := 1; pos < n; pos++ {
			c := float64(b.ds.Label(order[pos-1]))
			cls := int(c)
			leftSq += 2*leftCnt[cls] + 1
			rightSq += -2*rightCnt[cls] + 1
			leftCnt[cls]++
			rightCnt[cls]--
			v0 := b.ds.At(order[pos-1], feat)
			v1 := b.ds.At(order[pos], feat)
			if v0 == v1 || pos < minLeaf || n-pos < minLeaf {
				continue
			}
			nl, nr := float64(pos), float64(n-pos)
			giniL := 1 - leftSq/(nl*nl)
			giniR := 1 - rightSq/(nr*nr)
			gain := parentImp - (nl/fn)*giniL - (nr/fn)*giniR
			if gain > bestGain {
				bestGain = gain
				bestThr = v0 + (v1-v0)/2
			}
		}
		return bestThr, bestGain
	}

	// Regression: incremental variance via sums.
	var sumL, sqL, sumR, sqR float64
	for _, i := range order {
		y := b.ds.Y[i]
		sumR += y
		sqR += y * y
	}
	for pos := 1; pos < n; pos++ {
		y := b.ds.Y[order[pos-1]]
		sumL += y
		sqL += y * y
		sumR -= y
		sqR -= y * y
		v0 := b.ds.At(order[pos-1], feat)
		v1 := b.ds.At(order[pos], feat)
		if v0 == v1 || pos < minLeaf || n-pos < minLeaf {
			continue
		}
		nl, nr := float64(pos), float64(n-pos)
		varL := sqL/nl - (sumL/nl)*(sumL/nl)
		varR := sqR/nr - (sumR/nr)*(sumR/nr)
		if varL < 0 {
			varL = 0
		}
		if varR < 0 {
			varR = 0
		}
		gain := parentImp - (nl/fn)*varL - (nr/fn)*varR
		if gain > bestGain {
			bestGain = gain
			bestThr = v0 + (v1-v0)/2
		}
	}
	return bestThr, bestGain
}
