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
// whose top level is the stage table, in table order (materialize's final
// imputation is a second "impute" span there),
// with serial top-level stage durations summing to no more than the root,
// and the expected run counters.
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
	var top []string
	for _, c := range res.Trace.Root.Children {
		if len(top) == 0 || top[len(top)-1] != c.Name {
			top = append(top, c.Name)
		}
	}
	if strings.Join(top, ",") != strings.Join(pipelineStages, ",") {
		t.Fatalf("top-level spans %v, want the stage table %v", top, pipelineStages)
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

	// Counters: candidate attrition mirrors the Result fields, and join and
	// selection report activity.
	c := res.Trace.Counters
	if c["candidates.considered"] != int64(res.CandidatesConsidered) ||
		c["candidates.after_dedupe"] != int64(res.CandidatesDeduped) {
		t.Fatalf("attrition counters %v disagree with Result (%d, %d)",
			c, res.CandidatesConsidered, res.CandidatesDeduped)
	}
	if c["join.rows_matched"] <= 0 || c["join.candidates_scored"] <= 0 {
		t.Fatalf("join counters empty: %v", c)
	}
	if c["select.features_offered"] <= 0 || c["select.features_kept"] <= 0 {
		t.Fatalf("selection counters empty: %v", c)
	}
	out := res.Trace.Render()
	for _, stage := range pipelineStages {
		if !strings.Contains(out, stage) {
			t.Fatalf("rendered tree missing %q:\n%s", stage, out)
		}
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
// table: stageRank orders every boundary the way the driver visits it and
// knows no other, and a traced run has a latency histogram registered under
// every stage name before any stage has run (a run canceled before its first
// stage already exposes them all, empty).
func TestStageTable(t *testing.T) {
	for i, s := range stageTable {
		if r := stageRank(s.name); r != i {
			t.Errorf("stageRank(%q) = %d, want %d", s.name, r, i)
		}
	}
	for _, name := range []string{"no-such-stage", "batch"} {
		if r := stageRank(name); r != -1 {
			t.Errorf("stageRank(%q) = %d, want -1", name, r)
		}
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
