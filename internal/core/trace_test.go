package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/arda-ml/arda/internal/discovery"
	"github.com/arda-ml/arda/internal/featsel"
	"github.com/arda-ml/arda/internal/obs"
	"github.com/arda-ml/arda/internal/parallel"
	"github.com/arda-ml/arda/internal/synth"
)

// pipelineStages are the span names a full traced Augment run must cover —
// the paper's §6 cost breakdown — read off the production stage table.
var pipelineStages = func() []string {
	names := make([]string, len(stageTable))
	for i, s := range stageTable {
		names[i] = s.name
	}
	return names
}()

// tracedRun runs a small Poverty pipeline with a trace attached.
func tracedRun(t *testing.T, workers int, trace *obs.Trace) *Result {
	t.Helper()
	corpus := synth.Poverty(synth.Config{Seed: 71, Scale: 0.2})
	cands := discovery.Discover(corpus.Base, corpus.Repo, corpus.Target, discovery.Options{})
	if len(cands) == 0 {
		t.Fatal("discovery found nothing")
	}
	res, err := Augment(corpus.Base, cands, Options{
		Target:      corpus.Target,
		CoresetSize: 192,
		// A small budget forces several batches, so carried-forward columns
		// are re-encoded and the encode cache sees reuse.
		Budget: 48,
		// The paper's ensemble, so that every repetition part (rep.sparse
		// included) shows in the trace.
		Selector:  &featsel.RIFS{Config: featsel.RIFSConfig{K: 3, Nu: 0.5, Forest: featsel.ForestRanker{NTrees: 15, MaxDepth: 6}}},
		Estimator: fastEstimator(1),
		Seed:      72,
		Workers:   workers,
		Trace:     trace,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestAugmentTraceStageCoverage asserts a traced run yields a span tree
// covering every pipeline stage, with serial top-level stage durations
// summing to no more than the root, and the expected run counters.
func TestAugmentTraceStageCoverage(t *testing.T) {
	defer parallel.SetMaxWorkers(0)
	res := tracedRun(t, 0, obs.New("augment"))
	if res.Trace == nil {
		t.Fatal("Result.Trace not populated")
	}
	counts := res.Trace.SpanCounts()
	for _, stage := range pipelineStages {
		if counts[stage] == 0 {
			t.Fatalf("stage %q missing from span tree (have %v)", stage, counts)
		}
	}
	if counts["join.cand"] == 0 || counts["select.rep"] == 0 || counts["materialize.cand"] == 0 {
		t.Fatalf("per-item child spans missing: %v", counts)
	}

	// The root's direct children run serially, so their summed durations
	// cannot exceed the root span.
	var childSum int64
	for _, c := range res.Trace.Root.Children {
		childSum += int64(c.Dur)
	}
	if childSum > int64(res.Trace.Root.Dur) {
		t.Fatalf("top-level stage durations sum to %d > root %d", childSum, int64(res.Trace.Root.Dur))
	}

	// Counters: candidate attrition mirrors the Result fields, and the
	// caches report activity.
	c := res.Trace.Counters
	if c["candidates.considered"] != int64(res.CandidatesConsidered) ||
		c["candidates.after_dedupe"] != int64(res.CandidatesDeduped) {
		t.Fatalf("attrition counters %v disagree with Result (%d, %d)",
			c, res.CandidatesConsidered, res.CandidatesDeduped)
	}
	if c["join.rows_matched"] <= 0 || c["join.candidates_scored"] <= 0 {
		t.Fatalf("join counters empty: %v", c)
	}
	if c["encode_cache.hits"] <= 0 {
		t.Fatalf("encode cache saw no reuse: %v", c)
	}
	out := res.Trace.Render()
	for _, stage := range pipelineStages {
		if !strings.Contains(out, stage) {
			t.Fatalf("rendered tree missing %q:\n%s", stage, out)
		}
	}
}

// TestAugmentPrepCachePreparesOnce is the regression guard for the PR 2
// caching contract: a full run must prepare each candidate table exactly
// once per (keys, granularity) — every materialize-pass join of a kept
// candidate reuses the batch phase's preparation, so cache misses equal
// cache entries and the materialize pass adds only hits.
func TestAugmentPrepCachePreparesOnce(t *testing.T) {
	res := tracedRun(t, 0, obs.New("augment"))
	c := res.Trace.Counters
	misses, entries, hits := c["prep_cache.misses"], c["prep_cache.entries"], c["prep_cache.hits"]
	if entries == 0 {
		t.Fatal("prep cache never used")
	}
	if misses != entries {
		t.Fatalf("prep cache misses %d != entries %d: some table was prepared more than once", misses, entries)
	}
	if len(res.KeptTables) > 0 && hits == 0 {
		t.Fatalf("kept tables %v were materialized without any cache hit", res.KeptTables)
	}
}

// normalizeTree renders a span tree's structure — names, ordinals, labels,
// attributes, nesting — without durations, the scheduling-independent shape
// two runs of the same seeded pipeline must share.
func normalizeTree(s *obs.SpanStat, depth int, b *strings.Builder) {
	fmt.Fprintf(b, "%*s%s[%d] %s %v\n", depth*2, "", s.Name, s.Ord, s.Label, s.Attrs)
	for _, c := range s.Children {
		normalizeTree(c, depth+1, b)
	}
}

// TestAugmentTraceWorkersStructure runs the traced pipeline at 1 and 8
// workers and asserts identical span-tree structure and counters: tracing
// may never make observability output — let alone results — depend on
// scheduling.
func TestAugmentTraceWorkersStructure(t *testing.T) {
	defer parallel.SetMaxWorkers(0)
	shape := func(workers int) (string, map[string]int64) {
		res := tracedRun(t, workers, obs.New("augment"))
		var b strings.Builder
		normalizeTree(res.Trace.Root, 0, &b)
		return b.String(), res.Trace.Counters
	}
	one, oneC := shape(1)
	eight, eightC := shape(8)
	if one != eight {
		t.Fatalf("span tree structure differs between 1 and 8 workers:\n--- 1 worker ---\n%s\n--- 8 workers ---\n%s", one, eight)
	}
	for name, v := range oneC {
		if eightC[name] != v {
			t.Fatalf("counter %s differs: %d (1 worker) vs %d (8 workers)", name, v, eightC[name])
		}
	}
}

// TestAugmentTraceToggleBitIdentical asserts the tracing on/off toggle
// changes no result bit: same augmented CSV bytes, same scores, same kept
// columns.
func TestAugmentTraceToggleBitIdentical(t *testing.T) {
	plain := tracedRun(t, 0, nil)
	traced := tracedRun(t, 0, obs.New("augment"))

	if plain.Trace != nil {
		t.Fatal("untraced run must leave Result.Trace nil")
	}
	if plain.BaseScore != traced.BaseScore || plain.FinalScore != traced.FinalScore {
		t.Fatalf("scores differ with tracing: base %v vs %v, final %v vs %v",
			plain.BaseScore, traced.BaseScore, plain.FinalScore, traced.FinalScore)
	}
	var a, b bytes.Buffer
	if err := plain.Table.WriteCSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := traced.Table.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("augmented table bytes differ with tracing on vs off")
	}
}

// TestStageTable pins what the rest of the package derives from the stage
// table: stageRank orders every boundary the way the driver visits it — the
// per-batch group interleaved per batch, the stages after it above every
// batch — and a traced run has a latency histogram registered under every
// stage name before any stage has run (a run canceled before its first stage
// already exposes them all, empty).
func TestStageTable(t *testing.T) {
	type boundary struct {
		stage string
		batch int
	}
	var visit []boundary
	for _, s := range stageTable[:batchLo] {
		visit = append(visit, boundary{s.name, -1})
	}
	for b := 0; b <= 2; b++ {
		for _, s := range stageTable[batchLo:batchHi] {
			visit = append(visit, boundary{s.name, b})
		}
	}
	for _, s := range stageTable[batchHi:] {
		visit = append(visit, boundary{s.name, -1})
	}
	if len(visit) != len(stageTable)+2*(batchHi-batchLo) || batchLo >= batchHi {
		t.Fatalf("per-batch group [%d:%d) of %d stages", batchLo, batchHi, len(stageTable))
	}
	for i := 1; i < len(visit); i++ {
		prev, cur := visit[i-1], visit[i]
		if p, c := stageRank(prev.stage, prev.batch), stageRank(cur.stage, cur.batch); p < 0 || c <= p {
			t.Errorf("stageRank(%v) = %d, not below stageRank(%v) = %d", prev, p, cur, c)
		}
	}
	if r := stageRank("no-such-stage", -1); r != -1 {
		t.Errorf("stageRank of an unknown stage = %d, want -1", r)
	}

	corpus, cands := chaosCorpus(t)
	opts := chaosOptions(corpus, 0, nil)
	opts.Trace = obs.New("augment")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := AugmentContext(ctx, corpus.Base, cands, opts)
	if !errors.Is(err, ErrCanceled) || res == nil || res.Trace == nil {
		t.Fatalf("canceled run = %+v, %v; want a partial Result with its trace", res, err)
	}
	for _, s := range stageTable {
		if h, ok := res.Trace.Histograms[s.name]; !ok || h.Count != 0 {
			t.Errorf("stage %q: histogram registered %v with %d observations before any stage ran", s.name, ok, h.Count)
		}
	}
}
