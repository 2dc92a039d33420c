package ml

import (
	"math"
	"math/rand"
	"time"

	"github.com/arda-ml/arda/internal/obs"
	"github.com/arda-ml/arda/internal/parallel"
)

// ForestConfig controls random-forest training.
type ForestConfig struct {
	// NTrees is the ensemble size (default 100).
	NTrees int
	// MaxDepth bounds per-tree depth; <= 0 means unbounded.
	MaxDepth int
	// MinLeaf is the minimum samples per leaf (default 1 for classification,
	// 2 for regression).
	MinLeaf int
	// MTry is the features-per-split count; <= 0 selects sqrt(d) for
	// classification and max(1, d/3) for regression.
	MTry int
	// Seed seeds the per-tree RNGs.
	Seed int64
	// Parallel enables concurrent tree growth on the shared worker pool
	// (bounded by parallel.MaxWorkers). Per-tree RNGs derive from Seed and
	// the tree index, so the fitted forest is identical either way.
	Parallel bool
	// TreeDur, when non-nil, observes every fitted tree's wall-clock growth
	// time (bootstrap draw included) in nanoseconds — the per-tree latency
	// distribution behind the select stage's telemetry. Observability only:
	// it never affects the fitted forest, and nil (the default) costs one
	// branch per tree.
	TreeDur *obs.Histogram
}

// treeTimer times one tree fit into a histogram; the zero timer (nil
// histogram, telemetry off) never reads the clock.
type treeTimer struct {
	h     *obs.Histogram
	start time.Time
}

func startTreeTimer(h *obs.Histogram) treeTimer {
	if h == nil {
		return treeTimer{}
	}
	return treeTimer{h: h, start: time.Now()}
}

func (t treeTimer) finish() {
	if t.h != nil {
		t.h.Observe(int64(time.Since(t.start)))
	}
}

// Forest is a fitted random forest.
type Forest struct {
	Trees   []*Tree
	task    Task
	classes int
	imp     []float64
}

// resolveForestConfig applies FitForest's defaulting rules, returning the
// normalized config and the per-tree config it implies.
func resolveForestConfig(ds *Dataset, cfg ForestConfig) (ForestConfig, TreeConfig) {
	if cfg.NTrees <= 0 {
		cfg.NTrees = 100
	}
	if cfg.MinLeaf <= 0 {
		if ds.Task == Regression {
			cfg.MinLeaf = 2
		} else {
			cfg.MinLeaf = 1
		}
	}
	mtry := cfg.MTry
	if mtry <= 0 {
		if ds.Task == Classification {
			mtry = int(math.Sqrt(float64(ds.D)))
		} else {
			mtry = ds.D / 3
		}
		if mtry < 1 {
			mtry = 1
		}
	}
	return cfg, TreeConfig{MaxDepth: cfg.MaxDepth, MinLeaf: cfg.MinLeaf, MTry: mtry}
}

// splitSetFor returns the split set backing a forest fit on ds: the attached
// split view when one matches (presort already paid), a fresh per-forest
// build otherwise. Global orders, and the codes derived from them, are
// required by classification trees and by the presorted regression regime;
// all bootstrap trees have m == ds.N samples, so they all land in the same
// one.
func splitSetFor(ds *Dataset, tc TreeConfig, workers int) *splitSet {
	needOrders := ds.Task == Classification || !useFlatKernel(resolveMTry(tc.MTry, ds.D), ds.D, ds.N)
	if ss := ds.attachedSplits(needOrders); ss != nil {
		return ss
	}
	return buildSplitSet(ds, workers, needOrders)
}

// bootstrapTree draws one bootstrap sample and grows one tree from the
// shared split set in a pooled workspace.
func bootstrapTree(ss *splitSet, tc TreeConfig, seed int64) *Tree {
	ws := treeScratch.Get()
	t := ws.bootstrapTree(ss, tc, seed)
	treeScratch.Put(ws)
	return t
}

// bootstrapTree is bootstrapTree in ws. The RNG stream is n Intn draws for
// the bootstrap, then MTry shuffles inside tree growth; it comes from the
// workspace's source reseeded, which is the stream rand.NewSource(seed)
// gives, without allocating a source per tree.
func (ws *treeWorkspace) bootstrapTree(ss *splitSet, tc TreeConfig, seed int64) *Tree {
	if ws.rng == nil {
		ws.rng = rand.New(rand.NewSource(seed))
	} else {
		ws.rng.Seed(seed)
	}
	drawBootstrap(ws, ss.n, ws.rng)
	return fitTreeFromSplitSet(ss, tc, ws.rng, ws)
}

// drawBootstrap draws n rows with replacement into ws.cnt as per-row
// multiplicities: n Intn draws from rng.
func drawBootstrap(ws *treeWorkspace, n int, rng *rand.Rand) {
	ws.cnt = grow(ws.cnt, n)
	cnt := ws.cnt
	clear(cnt)
	for i := 0; i < n; i++ {
		cnt[rng.Intn(n)]++
	}
}

// aggregateImportances fills f.imp with the normalized mean of per-tree
// normalized importances.
func aggregateImportances(f *Forest, d int) {
	f.imp = make([]float64, d)
	for _, tree := range f.Trees {
		ti := tree.importance
		total := 0.0
		for _, v := range ti {
			total += v
		}
		if total <= 0 {
			continue
		}
		for j, v := range ti {
			f.imp[j] += v / total
		}
	}
	total := 0.0
	for _, v := range f.imp {
		total += v
	}
	if total > 0 {
		for j := range f.imp {
			f.imp[j] /= total
		}
	}
}

// FitForest trains a random forest on ds with bootstrap resampling. The
// dataset is presorted once into a shared split scaffold — or read from an
// attached split view (AttachSplits) when one matches — and each
// tree derives its bootstrap sample's feature orders from it with a linear
// scan, so tree growth never sorts (see splitset.go).
func FitForest(ds *Dataset, cfg ForestConfig) *Forest {
	cfg, tc := resolveForestConfig(ds, cfg)
	f := &Forest{
		Trees:   make([]*Tree, cfg.NTrees),
		task:    ds.Task,
		classes: ds.Classes,
	}
	// Tree growth runs on the shared worker pool: when a forest fits inside
	// an already-parallel stage (e.g. a RIFS repetition), the pool's global
	// cap keeps the total worker count bounded instead of multiplying.
	workers := 1
	if cfg.Parallel {
		workers = 0 // process-wide maximum
	}
	ss := splitSetFor(ds, tc, workers)
	parallel.ForEach(workers, cfg.NTrees, func(t int) {
		tm := startTreeTimer(cfg.TreeDur)
		f.Trees[t] = bootstrapTree(ss, tc, cfg.Seed+int64(t)*7919)
		tm.finish()
	})
	aggregateImportances(f, ds.D)
	return f
}

// Predict returns the ensemble prediction: majority vote for classification,
// mean for regression.
func (f *Forest) Predict(x []float64) float64 {
	if f.task == Classification {
		votes := make([]int, f.classes)
		for _, t := range f.Trees {
			votes[int(t.Predict(x))]++
		}
		best, bestK := -1, 0
		for k, v := range votes {
			if v > best {
				best, bestK = v, k
			}
		}
		return float64(bestK)
	}
	s := 0.0
	for _, t := range f.Trees {
		s += t.Predict(x)
	}
	return s / float64(len(f.Trees))
}

// Importances returns the normalized mean-decrease-impurity importance of
// each feature (sums to 1 when any splits occurred). The returned slice is a
// copy; mutating it cannot corrupt the fitted forest.
func (f *Forest) Importances() []float64 {
	out := make([]float64, len(f.imp))
	copy(out, f.imp)
	return out
}
