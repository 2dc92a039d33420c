package featsel

import (
	"context"
	"fmt"
	"math"
	"sync"

	"github.com/arda-ml/arda/internal/eval"
	"github.com/arda-ml/arda/internal/linalg"
	"github.com/arda-ml/arda/internal/ml"
	"github.com/arda-ml/arda/internal/obs"
	"github.com/arda-ml/arda/internal/parallel"
	"github.com/arda-ml/arda/internal/stats"
)

// InjectionKind selects the random-feature generation strategy of Algorithm 2.
type InjectionKind int

const (
	// MomentMatched fits N(µ, Σ) to the empirical feature-vector moments and
	// injects i.i.d. samples — the aggressive strategy for inputs where true
	// signal is a small fraction of the features.
	MomentMatched InjectionKind = iota
	// SimpleDistributions cycles through standard Normal / Bernoulli /
	// Uniform / Poisson noise columns — sufficient when most features are
	// real signal.
	SimpleDistributions
)

// String returns the injection kind name.
func (k InjectionKind) String() string {
	if k == SimpleDistributions {
		return "simple"
	}
	return "moment-matched"
}

// RIFSConfig tunes random-injection feature selection.
type RIFSConfig struct {
	// Eta is the fraction of random features injected, t = ⌈η·d⌉ (default
	// 0.2, the paper's setting).
	Eta float64
	// K is the number of injection repetitions (default 10).
	K int
	// Nu weights the random-forest ranking against the sparse-regression
	// ranking in the aggregate. The paper permits ν ∈ [0, 1] and the
	// endpoints are meaningful: ν = 1 ranks with the forest alone and ν = 0
	// with the sparse regression alone (the unused ensemble half is skipped
	// entirely). An unset or out-of-range Nu defaults to 1, the forest alone:
	// on the synthetic corpora the sparse half admits most of the false
	// positives and, on a wide repository, takes most of a repetition's time
	// (EXPERIMENTS.md). The paper's ensemble is Nu: 0.5. Because 0 is also
	// Go's zero value, an explicit sparse-only configuration must set NuSet.
	Nu float64
	// NuSet marks Nu as explicitly configured, distinguishing an intentional
	// Nu of 0 (sparse-regression-only ranking) from an unset field.
	NuSet bool
	// Thresholds is the increasing threshold set T of Algorithm 3 (default
	// {0.2, 0.4, 0.6, 0.8, 1.0}).
	Thresholds []float64
	// Injection selects the Algorithm 2 strategy (default MomentMatched).
	Injection InjectionKind
	// MomentMatchCap bounds the rows used to fit N(µ, Σ); above it the
	// sampler fits on a row subsample (default 768). The covariance is n×n,
	// so this caps the Cholesky cost.
	MomentMatchCap int
	// Forest configures the forest half of the ranking ensemble.
	Forest ForestRanker
	// Sparse configures the ℓ2,1 half of the ranking ensemble (fitted only
	// at ν < 1).
	Sparse ml.Sparse21Config
	// Workers bounds the goroutines used for the K injection repetitions,
	// the ranking ensemble, and the threshold sweep; 0 uses the process-wide
	// parallel.MaxWorkers. Every repetition derives its RNGs from
	// (seed, repetition) and counts merge in repetition order, so the
	// selected features are identical for any worker count.
	Workers int
}

func (c *RIFSConfig) defaults() {
	if c.Eta <= 0 {
		c.Eta = 0.2
	}
	if c.K <= 0 {
		c.K = 10
	}
	if (c.Nu == 0 && !c.NuSet) || c.Nu < 0 || c.Nu > 1 {
		c.Nu = 1
	}
	if len(c.Thresholds) == 0 {
		c.Thresholds = []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	}
	if c.MomentMatchCap <= 0 {
		c.MomentMatchCap = 768
	}
	if c.Forest.NTrees <= 0 {
		c.Forest.NTrees = 40
	}
	if c.Forest.MaxDepth <= 0 {
		c.Forest.MaxDepth = 10
	}
	if c.Sparse.MaxRows == 0 {
		c.Sparse.MaxRows = 256
	}
}

// RIFS is the paper's random-injection feature selection (Algorithms 1–3):
// repeatedly append synthetic noise columns, rank all columns — by
// random-forest importances at the default ν = 1, by the paper's ν-weighted
// ensemble with ℓ2,1 sparse-regression norms at ν < 1 — score each real
// feature by how often it outranks every injected column, and pick the
// survivor threshold by a monotone holdout sweep.
type RIFS struct {
	Config RIFSConfig

	// span is the current stage span for per-repetition child spans,
	// injected by the pipeline via AttachSpan; nil means tracing off.
	span *obs.Span

	// Injector cache: the moment-matched sampler standardizes the feature
	// matrix and factors an n×n covariance, which depends only on (ds, seed)
	// — not on the repetition — so consecutive calls over the same dataset
	// (RStar then Select, or retries) reuse the fit instead of redoing it.
	injMu   sync.Mutex
	injDS   *ml.Dataset
	injSeed int64
	inj     injector
}

// AttachSpan implements obs.SpanAttacher: subsequent Select calls emit one
// child span per injection repetition (with features_injected /
// features_outranked attributes, and rep.inject / rep.forest / rep.sparse /
// rep.aggregate children of its own, one per ranking half that runs) plus a
// threshold-sweep span under s. Spans only observe the run — selection output
// is bit-identical with tracing on or off. Attach nil to detach. Not safe to
// call concurrently with Select.
func (r *RIFS) AttachSpan(s *obs.Span) { r.span = s }

// Name implements Selector.
func (r *RIFS) Name() string { return "RIFS" }

// Supports implements Selector: both tasks.
func (r *RIFS) Supports(ml.Task) bool { return true }

// Select implements Selector.
func (r *RIFS) Select(ds *ml.Dataset, est eval.Fitter, seed int64) ([]int, error) {
	return r.SelectCtx(nil, ds, est, seed)
}

// SelectCtx implements ContextSelector: Select with cooperative
// cancellation. Once ctx is done the injection repetitions and the threshold
// sweep stop claiming work and ctx.Err() is returned; a nil ctx never
// cancels. The context only gates scheduling — a run that completes returns
// exactly what Select would.
func (r *RIFS) SelectCtx(ctx context.Context, ds *ml.Dataset, est eval.Fitter, seed int64) ([]int, error) {
	cfg := r.Config
	cfg.defaults()
	rstar, err := r.rstarCtx(ctx, ds, seed)
	if err != nil {
		return nil, err
	}
	sweepSpan := r.span.Child("select.sweep", 0)
	selected, err := r.sweep(ctx, ds, est, seed, rstar, &cfg)
	if err != nil {
		sweepSpan.End()
		return nil, err
	}
	sweepSpan.SetInt("features_kept", int64(len(selected)))
	sweepSpan.End()
	return selected, nil
}

// sweep is Algorithm 3: walk the increasing threshold set, keeping the
// subset {j : r*_j ≥ τ} while its holdout score, under the run's estimator,
// stays monotone. The nested candidate subsets are all contained in the
// loosest one, so the base columns are gathered from ds once
// (eval.SubsetEvaluator) and each tighter subset re-gathers from that
// compact matrix.
func (r *RIFS) sweep(ctx context.Context, ds *ml.Dataset, est eval.Fitter, seed int64, rstar []float64, cfg *RIFSConfig) ([]int, error) {
	subsets, uniq := thresholdSubsets(rstar, cfg.Thresholds)
	if len(uniq) == 0 {
		return nil, nil
	}
	// The same fixed stratified split all of this run's evaluations share,
	// so subset comparisons are apples-to-apples.
	split := eval.TrainTestSplit(ds, 0.25, seed)
	ev := eval.NewSubsetEvaluator(ds, split, est, uniq[0])
	ev.AttachHistogram(r.span.Trace().Histogram("select.subset_score"))
	// Distinct subsets are scored concurrently (speculatively past the
	// sequential stopping point; scoring is deterministic on the fixed
	// split), then the monotone walk replays over the precomputed scores,
	// returning exactly what the sequential sweep would.
	scores := make([]float64, len(uniq))
	err := parallel.ForEachCtx(ctx, cfg.Workers, len(uniq), func(i int) {
		scores[i] = ev.ScoreAt(positionsIn(uniq[0], uniq[i]))
	})
	if err != nil {
		return nil, err
	}
	return monotoneWalk(subsets, uniq, scores), nil
}

// thresholdSubsets materializes Algorithm 3's candidate subsets: for each
// threshold τ (ascending), the features with r* ≥ τ. The subsets are nested
// — a tighter threshold always selects a subset of a looser one — so the
// list ends at the first empty subset; uniq holds one representative per
// distinct size (a subset is identified by its size).
func thresholdSubsets(rstar, thresholds []float64) (subsets, uniq [][]int) {
	for _, tau := range thresholds {
		var subset []int
		for j, v := range rstar {
			if v >= tau {
				subset = append(subset, j)
			}
		}
		if len(subset) == 0 {
			break
		}
		subsets = append(subsets, subset)
	}
	for _, s := range subsets {
		if len(uniq) == 0 || len(uniq[len(uniq)-1]) != len(s) {
			uniq = append(uniq, s)
		}
	}
	return subsets, uniq
}

// monotoneWalk replays the sequential threshold walk over precomputed
// scores, returning the last subset before the score first decreases.
func monotoneWalk(subsets, uniq [][]int, scores []float64) []int {
	bySize := make(map[int]float64, len(uniq))
	for i, s := range uniq {
		bySize[len(s)] = scores[i]
	}
	var prev []int
	prevScore := math.Inf(-1)
	for _, subset := range subsets {
		sc := bySize[len(subset)]
		if sc < prevScore {
			break
		}
		prev, prevScore = subset, sc
	}
	return prev
}

// positionsIn maps sub's columns to their positions in base. Both slices are
// ascending and sub ⊆ base (nested threshold subsets), so a single merge
// walk suffices.
func positionsIn(base, sub []int) []int {
	pos := make([]int, len(sub))
	b := 0
	for i, c := range sub {
		for base[b] != c {
			b++
		}
		pos[i] = b
	}
	return pos
}

// RStar runs the K injection repetitions of Algorithm 1 and returns, per real
// feature, the fraction of repetitions in which it outranked every injected
// random feature.
func (r *RIFS) RStar(ds *ml.Dataset, seed int64) ([]float64, error) {
	return r.rstarCtx(nil, ds, seed)
}

// rstarCtx is RStar with cooperative cancellation over the K repetitions.
func (r *RIFS) rstarCtx(ctx context.Context, ds *ml.Dataset, seed int64) ([]float64, error) {
	cfg := r.Config
	cfg.defaults()
	// Every ranking-forest tree fit in the repetitions lands in the run's
	// per-tree latency histogram (nil — free — when tracing is off); these
	// are the only trees it counts.
	cfg.Forest.TreeDur = r.span.Trace().Histogram("select.tree_fit")
	d := ds.D
	t := int(math.Ceil(cfg.Eta * float64(d)))
	if t < 1 {
		t = 1
	}
	inject, err := r.injectorFor(ds, seed)
	if err != nil {
		return nil, err
	}
	n, d2 := ds.N, d+t
	// The d real columns are presorted once, before the repetition fan-out,
	// and every repetition's forest reads them through a per-rep view, so
	// only the t refreshed noise columns are presorted per repetition (inside
	// the workspace's reusable buffers). The sparse half ignores the
	// attachment. Skipped entirely at ν = 0, where no forest ever fits.
	useViews := cfg.Nu > 0
	var realCols []ml.SplitColumn
	if useViews {
		realCols = ml.PresortColumns(ds, cfg.Workers)
	}
	// Pooled augmented-dataset workspaces: the first d columns hold the real
	// features and are written once per workspace; repetitions reusing a
	// workspace only refill the t noise columns. The pool is per-call, so a
	// workspace's base columns always belong to this ds.
	type repWorkspace struct {
		x      []float64        // n×d2 row-major augmented design
		base   bool             // real columns already written
		noiseV []float64        // t×n columnar copies of the injected columns
		noiseO []int32          // t×n noise presort order buffers
		noise  []ml.SplitColumn // t presorted noise column headers
	}
	pool := parallel.NewScratchPool(func() *repWorkspace {
		ws := &repWorkspace{x: make([]float64, n*d2), noiseV: make([]float64, t*n)}
		if useViews {
			ws.noiseO = make([]int32, t*n)
			ws.noise = make([]ml.SplitColumn, t)
		}
		return ws
	})
	// Each repetition derives every RNG it touches from (seed, rep) and
	// produces a private outranked-noise indicator vector; indicators merge
	// in repetition order, so counts are identical for any worker count.
	runRep := func(rep int) ([]byte, error) {
		repSpan := r.span.Child("select.rep", rep)
		defer repSpan.End()
		repSeed := parallel.SplitSeed(seed, int64(rep))
		ws := pool.Get()
		defer pool.Put(ws)
		if !ws.base {
			for i := 0; i < n; i++ {
				copy(ws.x[i*d2:i*d2+d], ds.Row(i))
			}
			ws.base = true
		}
		injectSpan := repSpan.Child("rep.inject", 0)
		injectInto(ws.x, n, d, t, inject, repSeed, ws.noiseV)
		aug := &ml.Dataset{X: ws.x, N: n, D: d2, Y: ds.Y, Task: ds.Task, Classes: ds.Classes}
		if useViews {
			for c := 0; c < t; c++ {
				ws.noise[c] = ml.NewSplitColumn(ws.noiseV[c*n:(c+1)*n], ws.noiseO[c*n:(c+1)*n])
			}
			aug.AttachSplits(ml.NewSplitView(ds, realCols, ws.noise))
		}
		injectSpan.End()
		agg, err := r.aggregateRanking(&cfg, aug, repSeed, repSpan)
		if err != nil {
			return nil, err
		}
		maxNoise := math.Inf(-1)
		for j := d; j < d+t; j++ {
			if agg[j] > maxNoise {
				maxNoise = agg[j]
			}
		}
		beats := make([]byte, d)
		outranked := int64(0)
		for j := 0; j < d; j++ {
			if agg[j] > maxNoise {
				beats[j] = 1
				outranked++
			}
		}
		repSpan.SetInt("features_injected", int64(t))
		repSpan.SetInt("features_outranked", outranked)
		return beats, nil
	}

	counts, err := parallel.MapReduceCtx(ctx, cfg.Workers, cfg.K, runRep,
		make([]int, d),
		func(acc []int, beats []byte) []int {
			for j, b := range beats {
				acc[j] += int(b)
			}
			return acc
		})
	if err != nil {
		return nil, err
	}
	rstar := make([]float64, d)
	for j, c := range counts {
		rstar[j] = float64(c) / float64(cfg.K)
	}
	return rstar, nil
}

// aggregateRanking computes the ν-weighted ensemble ranking (normalized rank
// combination of forest importances and sparse-regression row norms) over
// every column of aug. At the ν endpoints only the weighted half is fitted:
// the other half's weight is exactly zero, so its ranking cannot move the
// aggregate, and skipping it returns bit-identical values. Each half that
// runs gets its own child of the repetition's span rep (nil: tracing off),
// and so does the rank combination, rep.aggregate.
func (r *RIFS) aggregateRanking(cfg *RIFSConfig, aug *ml.Dataset, seed int64, rep *obs.Span) ([]float64, error) {
	var rfScores, srScores []float64
	var rfErr, srErr error
	forest := func(sp *obs.Span) {
		sp.Begin()
		rfScores, rfErr = cfg.Forest.Rank(aug, seed)
		sp.End()
	}
	sparse := func(sp *obs.Span) {
		sp.Begin()
		sr := &SparseRegressionRanker{Config: cfg.Sparse}
		srScores, srErr = sr.Rank(aug, seed)
		sp.End()
	}
	switch {
	case cfg.Nu == 1:
		forest(rep.Child("rep.forest", 0))
	case cfg.Nu == 0:
		sparse(rep.Child("rep.sparse", 0))
	default:
		// The two ensemble halves are independent; run them as two
		// concurrent work items (each seeded identically to the sequential
		// path). Their spans are created here, in program order, and overlap
		// in time when two workers are free.
		spans := [2]*obs.Span{rep.Child("rep.forest", 0), rep.Child("rep.sparse", 0)}
		parallel.ForEach(cfg.Workers, 2, func(half int) {
			if half == 0 {
				forest(spans[0])
			} else {
				sparse(spans[1])
			}
		})
	}
	if rfErr != nil {
		return nil, fmt.Errorf("featsel: rifs forest ranking: %w", rfErr)
	}
	if srErr != nil {
		return nil, fmt.Errorf("featsel: rifs sparse ranking: %w", srErr)
	}
	defer rep.Child("rep.aggregate", 0).End()
	agg := make([]float64, aug.D)
	switch {
	case cfg.Nu == 1:
		copy(agg, RanksOf(rfScores))
	case cfg.Nu == 0:
		copy(agg, RanksOf(srScores))
	default:
		rfRank := RanksOf(rfScores)
		srRank := RanksOf(srScores)
		for j := range agg {
			agg[j] = float64(cfg.Nu*rfRank[j]) + float64((1-cfg.Nu)*srRank[j])
		}
	}
	return agg, nil
}

// injector fills out (length ds.N) with one synthetic noise column.
type injector func(repSeed int64, col int, out []float64)

// injectInto fills the noise block of the row-major augmented design x
// (n rows, stride d+t, real features occupying columns [0, d)) with the t
// injected columns for repSeed. cols is t×n scratch; each injected column is
// drawn into its cols[c*n:(c+1)*n] slot before the strided scatter, leaving a
// columnar copy behind for callers that presort the noise columns. Only the
// noise block of x is written, so a workspace's real columns survive across
// repetitions untouched.
func injectInto(x []float64, n, d, t int, inject injector, repSeed int64, cols []float64) {
	d2 := d + t
	for c := 0; c < t; c++ {
		col := cols[c*n : (c+1)*n]
		inject(repSeed, c, col)
		for i := 0; i < n; i++ {
			x[i*d2+d+c] = col[i]
		}
	}
}

// injectorFor returns the Algorithm 2 sampler for (ds, seed), reusing the
// cached one when the pipeline asks repeatedly for the same pair.
func (r *RIFS) injectorFor(ds *ml.Dataset, seed int64) (injector, error) {
	r.injMu.Lock()
	defer r.injMu.Unlock()
	if r.inj != nil && r.injDS == ds && r.injSeed == seed {
		return r.inj, nil
	}
	inj, err := r.newInjector(ds, seed)
	if err != nil {
		return nil, err
	}
	r.injDS, r.injSeed, r.inj = ds, seed, inj
	return inj, nil
}

// newInjector builds the Algorithm 2 sampler for ds.
func (r *RIFS) newInjector(ds *ml.Dataset, seed int64) (injector, error) {
	cfg := r.Config
	cfg.defaults()
	if cfg.Injection == SimpleDistributions {
		return func(repSeed int64, col int, out []float64) {
			rng := parallel.RNG(repSeed, int64(col))
			dist := stats.Distribution(col % 4)
			stats.SampleColumnInto(dist, rng, out)
		}, nil
	}
	// Moment-matched injection: µ is the mean feature vector (length n),
	// Σ the empirical covariance of the d feature columns (n×n), both fit on
	// at most MomentMatchCap rows. Columns are z-scored first — on raw data
	// the largest-scale column dominates Σ, collapsing it to (near) rank one
	// so every injected column becomes a clone of a single direction that
	// both rankers trivially bury, which would let arbitrary noise "beat all
	// injected features".
	rows := ds.N
	rowIdx := make([]int, rows)
	for i := range rowIdx {
		rowIdx[i] = i
	}
	if rows > cfg.MomentMatchCap {
		rng := newRNG(seed + 7)
		rowIdx = rng.Perm(ds.N)[:cfg.MomentMatchCap]
		rows = cfg.MomentMatchCap
	}
	n, d := rows, ds.D
	// Standardize each column over the fit rows.
	std := make([]float64, n*d)
	for j := 0; j < d; j++ {
		sum, sq := 0.0, 0.0
		for i := 0; i < n; i++ {
			v := ds.At(rowIdx[i], j)
			sum += v
			sq += float64(v * v)
		}
		mean := sum / float64(n)
		sd := math.Sqrt(math.Max(sq/float64(n)-float64(mean*mean), 0))
		if sd < 1e-12 {
			sd = 1
		}
		for i := 0; i < n; i++ {
			std[i*d+j] = (ds.At(rowIdx[i], j) - mean) / sd
		}
	}
	mu := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			mu[i] += std[i*d+j]
		}
	}
	linalg.Scale(mu, 1/float64(d))
	// Σ = C·Cᵀ/d where C is the row-centered standardized matrix; MulABt
	// computes the n×n Gram on the worker pool by row blocks. std is not
	// needed afterwards, so centering happens in place.
	centered := &linalg.Matrix{Rows: n, Cols: d, Data: std}
	for i := 0; i < n; i++ {
		row := centered.Row(i)
		for j := range row {
			row[j] -= mu[i]
		}
	}
	sigma := linalg.MulABt(centered, centered)
	linalg.Scale(sigma.Data, 1/float64(d))
	sampler, err := linalg.NewMVNSampler(mu, sigma)
	if err != nil {
		return nil, fmt.Errorf("featsel: rifs moment-matched sampler: %w", err)
	}
	// Pooled draw scratch: SampleTo consumes the same NormFloat64 stream
	// Sample would, so buffer reuse cannot change a drawn column.
	type drawScratch struct{ s, z []float64 }
	drawPool := parallel.NewScratchPool(func() *drawScratch {
		return &drawScratch{s: make([]float64, n), z: make([]float64, n)}
	})
	full := rows == ds.N
	return func(repSeed int64, col int, out []float64) {
		rng := parallel.RNG(repSeed, int64(col))
		sc := drawPool.Get()
		sampler.SampleTo(rng, sc.s, sc.z)
		if full {
			copy(out, sc.s)
		} else {
			// The sampler was fit on a row subsample; tile the sampled
			// pattern across all rows (values beyond the fit rows cycle
			// through the draw).
			for i := range out {
				out[i] = sc.s[i%n]
			}
		}
		drawPool.Put(sc)
	}, nil
}
