package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	arda "github.com/arda-ml/arda"
	"github.com/arda-ml/arda/internal/automl"
	"github.com/arda-ml/arda/internal/core"
	"github.com/arda-ml/arda/internal/ml"
)

// batchSeeds is how many distinct pipeline seeds a batch workload cycles
// through (seed+1 … seed+batchSeeds). Every one of them runs at least once,
// so the quality metrics always average the same seeds.
const batchSeeds = 3

// setupRepeats is how many times a workload's set-up is repeated so that
// setup_s can be reported as a median.
const setupRepeats = 3

// batchWorkload is an in-process workload: what cmd/arda and one daemon
// attempt do, called directly.
type batchWorkload struct {
	corpus corpusSpec
	// options returns the pipeline options for one run; everything not set
	// here is the program's default.
	options func(target string, seed int64) arda.Options
}

var batchWorkloads = map[string]batchWorkload{
	"wide-repo": {wideRepoCorpus, func(target string, seed int64) arda.Options {
		return arda.Options{Target: target, Seed: seed}
	}},
	"tall-base": {tallBaseCorpus, func(target string, seed int64) arda.Options {
		return arda.Options{Target: target, Seed: seed, CoresetSize: 256}
	}},
}

// pipelineRun is one timed pass over the batch path.
type pipelineRun struct {
	Total, Load, Discover, Augment, Write time.Duration
	AllocMB                               float64
	Candidates                            int
	Res                                   *arda.Result
	Digest                                uint64
}

// runPipeline is the unit of work of the batch workloads: load every CSV,
// discover candidates, augment, write the augmented table. Each call into a
// layer is timed from outside and, when rec is set, recorded as a span.
func runPipeline(c *corpusOnDisk, opts arda.Options, outPath string, rec *recorder, runID string) (*pipelineRun, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run := &pipelineRun{}
	root := rec.start(0, runID, "run")
	defer rec.end(root)
	start := time.Now()

	sp := rec.start(root, runID, "dataframe.load")
	tables, err := arda.LoadCSVDir(c.Dir)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	run.Load = time.Since(start)
	var base *arda.Table
	repo := make([]*arda.Table, 0, len(tables))
	for _, t := range tables {
		if t.Name() == c.Base {
			base = t
		} else {
			repo = append(repo, t)
		}
	}
	if base == nil {
		return nil, fmt.Errorf("base table %q not in %s", c.Base, c.Dir)
	}

	t0 := time.Now()
	sp = rec.start(root, runID, "discovery.discover")
	cands := arda.Discover(base, repo, c.Target)
	rec.end(sp)
	run.Discover = time.Since(t0)
	run.Candidates = len(cands)

	t0 = time.Now()
	sp = rec.start(root, runID, "core.augment")
	res, err := arda.Augment(base, cands, opts)
	rec.end(sp)
	run.Augment = time.Since(t0)
	if err != nil {
		return nil, err
	}
	if res.Trace != nil && res.Trace.Root != nil {
		var names []string
		var durs []time.Duration
		for _, ch := range res.Trace.Root.Children {
			names = append(names, "core."+ch.Name)
			durs = append(durs, ch.Dur)
		}
		rec.reported(sp, runID, names, durs)
	}

	t0 = time.Now()
	sp = rec.start(root, runID, "dataframe.write")
	err = res.Table.WriteCSVFile(outPath)
	rec.end(sp)
	run.Write = time.Since(t0)
	if err != nil {
		return nil, err
	}
	run.Total = time.Since(start)

	runtime.ReadMemStats(&after)
	run.AllocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	run.Res = res
	run.Digest = res.Table.Digest()
	return run, nil
}

// checkOutput verifies one run's answer: the augmented table keeps every
// base row, the scores are numbers, and the CSV on disk reads back with the
// same shape.
func checkOutput(c *corpusOnDisk, run *pipelineRun, outPath string, reread bool) error {
	res := run.Res
	if res.Table.NumRows() != c.Shape.BaseRows {
		return fmt.Errorf("augmented table has %d rows, base has %d", res.Table.NumRows(), c.Shape.BaseRows)
	}
	if math.IsNaN(res.BaseScore) || math.IsNaN(res.FinalScore) {
		return fmt.Errorf("scores are not numbers: base %v final %v", res.BaseScore, res.FinalScore)
	}
	if !reread {
		return nil
	}
	back, err := arda.ReadCSVFile(outPath)
	if err != nil {
		return fmt.Errorf("reading back %s: %w", outPath, err)
	}
	if back.NumRows() != res.Table.NumRows() || back.NumCols() != res.Table.NumCols() {
		return fmt.Errorf("written table is %dx%d, result is %dx%d",
			back.NumRows(), back.NumCols(), res.Table.NumRows(), res.Table.NumCols())
	}
	return nil
}

// setupCorpus writes the workload's corpus `repeats` times (fresh directory
// each time, the last one kept) and returns the per-set-up durations.
func (h *harness) setupCorpus(spec corpusSpec, repeats int) (*corpusOnDisk, []float64, error) {
	var c *corpusOnDisk
	var durs []float64
	for i := 0; i < repeats; i++ {
		if c != nil {
			os.RemoveAll(c.Dir)
		}
		var d time.Duration
		var err error
		c, d, err = writeCorpus(spec, h.seed, filepath.Join(h.root, fmt.Sprintf("corpus-%d", i)))
		if err != nil {
			return nil, nil, err
		}
		durs = append(durs, d.Seconds())
	}
	h.shape = c.Shape
	return c, durs, nil
}

// runBatch measures one batch workload. Untraced, it times the closed loop
// of pipeline runs for h.seconds; traced, it spends the same budget on
// paired plain/traced runs and the per-layer probes.
func (h *harness) runBatch(w batchWorkload) error {
	repeats := setupRepeats
	if h.traced {
		repeats = 1
	}
	c, setups, err := h.setupCorpus(w.corpus, repeats)
	if err != nil {
		return err
	}
	h.m["setup_s"] = median(setups)
	h.samples["setup_s"] = len(setups)
	h.config["pipeline_seeds"] = batchSeeds
	out := filepath.Join(h.root, "augmented.csv")
	if h.traced {
		return h.batchLayers(w, c, out)
	}

	// There is no separate warm-up: the first run pays for the cold allocator
	// and the median shrugs it off. The loop runs every seed once and then
	// seed+1 a second time, so at least one digest is checked for repeating.
	var times []float64
	var q quality
	digests := map[int64]uint64{}
	start := time.Now()
	for i := 0; ; i++ {
		if i > batchSeeds && time.Since(start) >= h.seconds-time.Duration(median(times)*float64(time.Second)/2) {
			break
		}
		seed := h.seed + 1 + int64(i%batchSeeds)
		h.count()
		run, err := runPipeline(c, w.options(c.Target, seed), out, nil, "")
		if err != nil {
			h.fail("run %d (seed %d): %v", i, seed, err)
			continue
		}
		if err := checkOutput(c, run, out, i == 0); err != nil {
			h.fail("run %d (seed %d): %v", i, seed, err)
			continue
		}
		if want, ok := digests[seed]; ok && want != run.Digest {
			h.fail("run %d (seed %d): digest %016x differs from the earlier run's %016x", i, seed, run.Digest, want)
			continue
		}
		digests[seed] = run.Digest
		times = append(times, run.Total.Seconds())
		q.add(c, seed, run.Res.BaseScore, run.Res.FinalScore, run.Res.KeptTables)
	}
	wall := time.Since(start)

	h.m["run_p50_s"] = median(times)
	h.samples["run_p50_s"] = len(times)
	h.m["throughput_runs_per_s"] = ratio(float64(len(times)), wall.Seconds())
	q.into(h.m)
	h.m["peak_rss_mb"] = selfPeakRSSMB()
	return nil
}

// batchLayers is the traced run of a batch workload: it records spans around
// every call, reads the program's own stage telemetry from Result.Trace, and
// runs the one-off probes (checkpointing, one worker, a direct forest fit).
func (h *harness) batchLayers(w batchWorkload, c *corpusOnDisk, out string) error {
	type pair struct {
		plain, traced *pipelineRun
		stages        map[string]time.Duration // traced.Res.Trace.StageTotals()
	}
	var pairs []pair
	var events []float64
	var q quality
	start := time.Now()
	for j := 0; j == 0 || time.Since(start) < h.seconds/2; j++ {
		seed := h.seed + 1 + int64(j%batchSeeds)
		h.count()
		h.count()
		plain, err := runPipeline(c, w.options(c.Target, seed), out, h.rec, fmt.Sprintf("plain-%d", j))
		if err != nil {
			h.fail("plain run %d: %v", j, err)
			continue
		}
		opts := w.options(c.Target, seed)
		sink := arda.NewTraceCollector()
		opts.Trace = arda.NewTrace(sink)
		traced, err := runPipeline(c, opts, out, h.rec, fmt.Sprintf("traced-%d", j))
		if err != nil {
			h.fail("traced run %d: %v", j, err)
			continue
		}
		if plain.Digest != traced.Digest {
			h.fail("seed %d: traced digest %016x differs from untraced %016x", seed, traced.Digest, plain.Digest)
			continue
		}
		pairs = append(pairs, pair{plain, traced, traced.Res.Trace.StageTotals()})
		events = append(events, float64(len(sink.Events())))
		q.add(c, seed, plain.Res.BaseScore, plain.Res.FinalScore, plain.Res.KeptTables)
	}
	if len(pairs) == 0 {
		return fmt.Errorf("no traced run succeeded")
	}
	h.samples["traced_pairs"] = len(pairs)

	col := func(f func(p pair) float64) float64 {
		xs := make([]float64, len(pairs))
		for i, p := range pairs {
			xs[i] = f(p)
		}
		return median(xs)
	}
	first := pairs[0]
	m := h.m
	m["dataframe.load_ms"] = col(func(p pair) float64 { return millis(p.plain.Load) })
	m["dataframe.load_mb_per_s"] = ratio(float64(c.Shape.CSVBytes)/1e6, m["dataframe.load_ms"]/1e3)
	m["dataframe.write_ms"] = col(func(p pair) float64 { return millis(p.plain.Write) })
	m["discovery.discover_ms"] = col(func(p pair) float64 { return millis(p.plain.Discover) })
	m["discovery.candidates"] = float64(first.plain.Candidates)
	m["core.augment_ms"] = col(func(p pair) float64 { return millis(p.traced.Augment) })
	m["obs.trace_overhead_pct"] = 100 * col(func(p pair) float64 {
		return ratio(p.traced.Augment.Seconds()-p.plain.Augment.Seconds(), p.plain.Augment.Seconds())
	})
	m["obs.events_per_run"] = median(events)
	m["proc.alloc_mb_per_run"] = col(func(p pair) float64 { return p.plain.AllocMB })
	q.into(m)

	// Stage times are medians over the traced runs; counts come from the
	// first traced run (seed+1), so they repeat exactly for a given -seed.
	stage := func(name string) float64 {
		return col(func(p pair) float64 { return millis(p.stages[name]) })
	}
	m["core.self_ms"] = col(func(p pair) float64 {
		var staged time.Duration
		for _, ch := range p.traced.Res.Trace.Root.Children {
			staged += ch.Dur
		}
		return millis(p.traced.Augment - staged)
	})
	m["core.prefilter_ms"] = stage("prefilter")
	m["coreset.ms"] = stage("coreset")
	m["join.ms"] = stage("join")
	m["join.impute_ms"] = stage("impute")
	m["join.materialize_ms"] = stage("materialize")
	m["featsel.select_ms"] = stage("select")
	m["featsel.rep_ms"] = stage("select.rep")
	m["featsel.sweep_ms"] = stage("select.sweep")
	m["eval.evaluate_ms"] = stage("evaluate")

	rs := first.traced.Res.Trace
	cnt := func(name string) float64 { return float64(rs.Counters[name]) }
	hitRatio := func(prefix string) float64 {
		return ratio(cnt(prefix+"hits"), cnt(prefix+"hits")+cnt(prefix+"misses"))
	}
	m["core.candidates_after_prefilter"] = cnt("candidates.after_tuple_ratio")
	for _, ch := range rs.Root.Children {
		if ch.Name == "coreset" {
			m["coreset.rows_out"] = float64(ch.Attrs["rows_out"])
		}
	}
	m["join.rows_matched"] = cnt("join.rows_matched")
	m["join.prep_cache_hit_ratio"] = hitRatio("prep_cache.")
	m["dataframe.encode_cache_hit_ratio"] = hitRatio("encode_cache.")
	m["featsel.features_offered"] = cnt("select.features_offered")
	m["featsel.features_kept"] = cnt("select.features_kept")
	m["featsel.reps_short_circuited"] = cnt("select.reps_short_circuited")
	m["ml.splitcache_hit_ratio"] = hitRatio("select.splitset_cache_")
	fit := rs.Histograms["select.tree_fit"]
	m["ml.tree_fit_us_p50"] = float64(fit.Quantile(0.5)) / 1e3
	m["ml.trees_fit"] = float64(fit.Count)
	score := rs.Histograms["select.subset_score"]
	m["eval.subset_score_us_p50"] = float64(score.Quantile(0.5)) / 1e3
	m["eval.subset_scores"] = float64(score.Count)

	// Checkpointing: the same seed again with CheckpointDir set, against the
	// traced run (the counter checkpoint.saved needs a trace).
	ckDir := filepath.Join(h.root, "checkpoints")
	opts := w.options(c.Target, h.seed+1)
	opts.CheckpointDir = ckDir
	opts.Trace = arda.NewTrace()
	h.count()
	if ck, err := runPipeline(c, opts, out, h.rec, "checkpointed"); err != nil {
		h.fail("checkpointed run: %v", err)
	} else if ck.Digest != first.plain.Digest {
		h.fail("checkpointed digest %016x differs from plain %016x", ck.Digest, first.plain.Digest)
	} else {
		m["checkpoint.overhead_pct"] = 100 * ratio(ck.Augment.Seconds()-first.traced.Augment.Seconds(), first.traced.Augment.Seconds())
		m["checkpoint.saves"] = float64(ck.Res.Trace.Counters["checkpoint.saved"])
		m["checkpoint.bytes_per_run"] = float64(dirBytes(ckDir))
	}

	// A direct forest fit on the final augmented dataset, outside the pipeline.
	if err := h.forestProbe(first.plain.Res, c.Target); err != nil {
		h.fail("forest probe: %v", err)
	}

	// One worker, last: Options.Workers lowers a process-wide cap that a
	// later run with Workers 0 would inherit.
	opts = w.options(c.Target, h.seed+1)
	opts.Workers = 1
	h.count()
	if one, err := runPipeline(c, opts, out, h.rec, "one-worker"); err != nil {
		h.fail("one-worker run: %v", err)
	} else if one.Digest != first.plain.Digest {
		h.fail("one-worker digest %016x differs from plain %016x", one.Digest, first.plain.Digest)
	} else {
		m["parallel.speedup_x"] = ratio(one.Augment.Seconds(), first.plain.Augment.Seconds())
	}
	return nil
}

// forestProbe times ml.FitForest under the default estimator's
// configuration on the augmented table: the kernel cost of one forest at
// this workload's shape, with nothing of the pipeline around it.
func (h *harness) forestProbe(res *arda.Result, target string) error {
	task, classes, err := core.TaskOf(res.Table, target)
	if err != nil {
		return err
	}
	ds, err := core.DatasetOf(res.Table, target, task, classes)
	if err != nil {
		return err
	}
	sp := h.rec.start(0, "probe", "ml.fit_forest")
	t0 := time.Now()
	f := ml.FitForest(ds, automl.DefaultForestConfig(h.seed))
	h.m["ml.forest_fit_probe_ms"] = millis(time.Since(t0))
	h.rec.end(sp)
	if f == nil {
		return fmt.Errorf("FitForest returned nil")
	}
	return nil
}
