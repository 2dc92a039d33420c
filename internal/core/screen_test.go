package core

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/arda-ml/arda/internal/dataframe"
	"github.com/arda-ml/arda/internal/discovery"
	"github.com/arda-ml/arda/internal/faults"
	"github.com/arda-ml/arda/internal/join"
	"github.com/arda-ml/arda/internal/ml"
	"github.com/arda-ml/arda/internal/obs"
	"github.com/arda-ml/arda/internal/parallel"
	"github.com/arda-ml/arda/internal/synth"
	"github.com/arda-ml/arda/internal/testenv"
)

// wideCorpus is the fixture the screen stage has to cut: SchoolL's 350
// tables (about 1,050 features) against wideOptions' 192-row coreset.
func wideCorpus(t *testing.T) (*synth.Corpus, []discovery.Candidate) {
	t.Helper()
	corpus := synth.SchoolL(synth.Config{Seed: 61, Scale: 0.2})
	cands := discovery.Discover(corpus.Base, corpus.Repo, corpus.Target, discovery.Options{})
	if len(cands) < 300 {
		t.Fatalf("discovery found only %d candidates", len(cands))
	}
	return corpus, cands
}

// wideOptions is chaosOptions with a budget half the coreset, so the tables
// the screen passes on still take more than one join/impute/select round.
func wideOptions(corpus *synth.Corpus, workers int, inj *faults.Injector) Options {
	opts := chaosOptions(corpus, workers, inj)
	opts.Budget = 96
	return opts
}

// screenFixture builds a 40-row base whose target is a function of x, and
// four candidate tables keyed by k: "strong" and "twin" each carry x, "wide3"
// carries x under moderate noise plus two unrelated columns, "faint" carries
// one column barely related to the target.
func screenFixture() (*dataframe.Table, []discovery.Candidate) {
	const n = 40
	keys := make([]string, n)
	x, y, mid, faint := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	junk := [2][]float64{make([]float64, n), make([]float64, n)}
	for i := 0; i < n; i++ {
		keys[i] = "k" + string(rune('A'+i/26)) + string(rune('a'+i%26))
		x[i] = float64(i)
		y[i] = 3*x[i] + float64(i%3)
		mid[i] = x[i] + 6*float64((i*7)%11-5)
		faint[i] = 0.2*x[i] + float64((i*5)%13)
		for j := range junk {
			junk[j][i] = float64((i*(7+4*j) + 3*j) % 13)
		}
	}
	key := func() dataframe.Column { return dataframe.NewCategorical("k", append([]string{}, keys...)) }
	base := dataframe.MustNewTable("base", key(), dataframe.NewNumeric("y", y))
	cand := func(t *dataframe.Table) discovery.Candidate {
		return discovery.Candidate{Table: t, Keys: []join.KeyPair{{BaseColumn: "k", ForeignColumn: "k", Kind: join.Hard}}}
	}
	return base, []discovery.Candidate{
		cand(dataframe.MustNewTable("strong", key(), dataframe.NewNumeric("x", x))),
		cand(dataframe.MustNewTable("wide3", key(), dataframe.NewNumeric("a", junk[0]),
			dataframe.NewNumeric("m", mid), dataframe.NewNumeric("c", junk[1]))),
		cand(dataframe.MustNewTable("twin", key(), dataframe.NewNumeric("x", append([]float64{}, x...)))),
		cand(dataframe.MustNewTable("faint", key(), dataframe.NewNumeric("w", faint))),
	}
}

// TestScreenKeepsBestThatFit pins the rule on a hand-built fixture: nothing
// happens while the candidates fit; past that, tables are taken best score
// first (ties in candidate order) while they fit, a table that no longer fits
// is passed over for a smaller one, the best table is kept whatever its
// size, and survivors come back in candidate order.
func TestScreenKeepsBestThatFit(t *testing.T) {
	base, cands := screenFixture()
	run := func(capacity int) (*screenOutcome, *join.PrepCache) {
		prep := join.NewPrepCache()
		out, faults, err := screenCandidates(context.Background(), screenInput{
			Coreset: base, Cands: cands, Capacity: capacity, Task: ml.Regression,
			Opts: &Options{Target: "y", Seed: 1}, Prep: prep,
		})
		if err != nil {
			t.Fatalf("capacity %d: %v", capacity, err)
		}
		for ord, ferr := range faults {
			if ferr != nil {
				t.Fatalf("capacity %d: candidate %d faulted: %v", capacity, ord, ferr)
			}
		}
		return out, prep
	}

	// Six features in all: a capacity of six is the identity, and free.
	out, prep := run(6)
	if !reflect.DeepEqual(out.Kept, []int{0, 1, 2, 3}) || out.Tables != nil || prep.Len() != 0 {
		t.Fatalf("fitting candidates: kept %v, %d verdicts, %d tables prepared; want all, none, none",
			out.Kept, len(out.Tables), prep.Len())
	}
	if got := out.keep(cands); len(got) != 4 || got[3].Table.Name() != "faint" {
		t.Fatalf("identity keep returned %d candidates", len(got))
	}

	for _, c := range []struct {
		capacity int
		want     []int
	}{
		{5, []int{0, 1, 2}}, // strong, twin, wide3; faint no longer fits
		{3, []int{0, 2, 3}}, // wide3 no longer fits and is passed over for faint
		{2, []int{0, 2}},
		{1, []int{0}}, // the tie goes to the earlier candidate
		{0, []int{0}}, // the best table goes on even when nothing fits
	} {
		out, _ := run(c.capacity)
		if !reflect.DeepEqual(out.Kept, c.want) {
			t.Errorf("capacity %d: kept %v, want %v (%+v)", c.capacity, out.Kept, c.want, out.Tables)
		}
		for ord, v := range out.Tables {
			if v.Name != cands[ord].Table.Name() || v.Features != EstimateFeatures(cands[ord]) {
				t.Errorf("capacity %d: verdict %d is %+v", c.capacity, ord, v)
			}
		}
		if tb := out.Tables; !(tb[0].Score == tb[2].Score && tb[0].Score > tb[1].Score && tb[1].Score > tb[3].Score) {
			t.Errorf("capacity %d: scores %+v, want strong = twin > wide3 > faint", c.capacity, tb)
		}
		got := out.keep(cands)
		for i, ord := range c.want {
			if got[i].Table != cands[ord].Table {
				t.Errorf("capacity %d: survivor %d is %s", c.capacity, i, got[i].Table.Name())
			}
		}
	}

	// The same rule with a table that is oversized on its own.
	only, _, err := screenCandidates(context.Background(), screenInput{
		Coreset: base, Cands: cands[1:2], Capacity: 2, Task: ml.Regression,
		Opts: &Options{Target: "y", Seed: 1}, Prep: join.NewPrepCache(),
	})
	if err != nil || !reflect.DeepEqual(only.Kept, []int{0}) {
		t.Fatalf("a lone oversized table: kept %v, err %v", only.Kept, err)
	}
}

// TestScreenWorkersBitIdentical runs the wide fixture traced at 1 and 8
// workers: the screen fans out over the pool, and nothing it produces — the
// verdicts, the survivors, the table, the span tree, the counters (cache
// hits and misses among them) — may depend on how.
func TestScreenWorkersBitIdentical(t *testing.T) {
	defer parallel.SetMaxWorkers(0)
	corpus, cands := wideCorpus(t)
	run := func(workers int) (*Result, string) {
		opts := wideOptions(corpus, workers, nil)
		opts.Trace = obs.New("augment")
		res, err := Augment(corpus.Base, cands, opts)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		normalizeTree(res.Trace.Root, 0, &b)
		return res, b.String()
	}
	one, oneTree := run(1)
	eight, eightTree := run(8)
	if one.CandidatesScreened == 0 || len(one.Screened) != len(cands) || len(one.Batches) < 2 {
		t.Fatalf("fixture did not engage the screen: dropped %d, %d verdicts, %d batches",
			one.CandidatesScreened, len(one.Screened), len(one.Batches))
	}
	if !reflect.DeepEqual(one.Screened, eight.Screened) {
		t.Fatal("screen verdicts differ between 1 and 8 workers")
	}
	if got, want := resultKey(t, eight), resultKey(t, one); got != want {
		t.Fatalf("results differ between 1 and 8 workers:\n 1: %s\n 8: %s", want, got)
	}
	if oneTree != eightTree {
		t.Fatalf("span trees differ between 1 and 8 workers:\n--- 1 ---\n%s\n--- 8 ---\n%s", oneTree, eightTree)
	}
	if !reflect.DeepEqual(one.Trace.Counters, eight.Trace.Counters) {
		t.Fatalf("counters differ between 1 and 8 workers:\n 1: %v\n 8: %v", one.Trace.Counters, eight.Trace.Counters)
	}

	// The stage is a top-level span with the attrition on it and in the
	// gauges, and its survivors are exactly what the batches were offered.
	var span *obs.SpanStat
	for _, ch := range one.Trace.Root.Children {
		if ch.Name == "screen" {
			span = ch
		}
	}
	kept := len(cands) - one.CandidatesScreened
	if span == nil || span.Attrs["candidates_in"] != int64(len(cands)) || span.Attrs["candidates_out"] != int64(kept) {
		t.Fatalf("screen span %+v, want candidates_in %d candidates_out %d", span, len(cands), kept)
	}
	if got := one.Trace.Counters["candidates.after_screen"]; got != int64(kept) {
		t.Fatalf("candidates.after_screen = %d, want %d", got, kept)
	}
	offered := 0
	for _, b := range one.Batches {
		offered += len(b.Tables)
	}
	if offered != kept {
		t.Fatalf("batches were offered %d tables, the screen passed on %d", offered, kept)
	}

	// Prepare-once holds across all three stages that join, and the two
	// later ones now find the screen's work: every batch join is a hit.
	c := one.Trace.Counters
	if c["prep_cache.misses"] != c["prep_cache.entries"] {
		t.Fatalf("prep cache misses %d != entries %d", c["prep_cache.misses"], c["prep_cache.entries"])
	}
	if hits := c["prep_cache.hits"]; hits < int64(kept+len(one.KeptTables)) {
		t.Fatalf("prep cache hits %d, want at least %d joins + %d materializations", hits, kept, len(one.KeptTables))
	}
	if ratio := float64(c["prep_cache.hits"]) / float64(c["prep_cache.hits"]+c["prep_cache.misses"]); ratio <= 0.10 {
		t.Fatalf("prep cache hit ratio %.3f, want above the 0.10 of a run that never asked twice", ratio)
	}
}

// TestChaosScreenFaultQuarantinesCandidate injects an error and a panic at
// the screen's fault site: exactly those two candidates are quarantined at
// stage "screen", neither reaches a batch, and the run completes identically
// at 1 and 8 workers.
func TestChaosScreenFaultQuarantinesCandidate(t *testing.T) {
	defer parallel.SetMaxWorkers(0)
	corpus, cands := wideCorpus(t)
	ordered := DedupeCandidates(corpus.Base, cands)
	run := func(workers int) *Result {
		res, err := Augment(corpus.Base, cands, wideOptions(corpus, workers, faults.New(99,
			faults.At(faults.Error, "screen", 3), faults.At(faults.Panic, "screen", 7))))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	one := run(1)
	want := []string{"screen/" + ordered[3].Table.Name(), "screen/" + ordered[7].Table.Name()}
	sort.Strings(want)
	if got := quarantineKeys(one.Quarantined); !reflect.DeepEqual(got, want) {
		t.Fatalf("quarantined %v, want %v", got, want)
	}
	for _, q := range one.Quarantined {
		if q.Stage != "screen" || q.Reason == "" {
			t.Fatalf("quarantine record %+v", q)
		}
	}
	for _, ord := range []int{3, 7} {
		if v := one.Screened[ord]; v.Kept || v.Score != 0 {
			t.Fatalf("faulted candidate %d has verdict %+v", ord, v)
		}
		for _, b := range one.Batches {
			for _, name := range b.Tables {
				if name == ordered[ord].Table.Name() {
					t.Fatalf("faulted candidate %s was offered to a batch", name)
				}
			}
		}
	}
	if one.Table == nil || one.FinalScore == 0 {
		t.Fatal("faulted run produced no table and score")
	}
	if got, want := resultKey(t, run(8)), resultKey(t, one); got != want {
		t.Fatalf("faulted runs differ between 1 and 8 workers:\n 1: %s\n 8: %s", want, got)
	}
}

// TestChaosScreenPanicFlood panics at every screen site: the run survives,
// quarantines every candidate there, and returns the base table unaugmented.
func TestChaosScreenPanicFlood(t *testing.T) {
	defer parallel.SetMaxWorkers(0)
	corpus, cands := wideCorpus(t)
	res, err := Augment(corpus.Base, cands, wideOptions(corpus, 8,
		faults.New(3, faults.Rule{Stage: "screen", Ordinal: -1, Kind: faults.Panic})))
	if err != nil {
		t.Fatalf("all-panic screen failed instead of quarantining: %v", err)
	}
	planned := res.CandidatesDeduped - res.CandidatesFiltered
	if len(res.Quarantined) != planned || res.CandidatesScreened != planned {
		t.Fatalf("quarantined %d, screened out %d of %d candidates", len(res.Quarantined), res.CandidatesScreened, planned)
	}
	if len(res.KeptColumns) != 0 || len(res.Batches) != 0 || res.Table == nil {
		t.Fatalf("flooded run kept %v in %d batches", res.KeptColumns, len(res.Batches))
	}
}

// TestCancelDuringScreen slows every screen join, cancels while the stage is
// fanned out, and wants the typed error long before the queue would have
// drained, a partial result, and no goroutine left behind.
func TestCancelDuringScreen(t *testing.T) {
	defer parallel.SetMaxWorkers(0)
	defer testenv.NoGoroutineLeak(t)()
	corpus, cands := wideCorpus(t)

	const perJoin = 20 * time.Millisecond
	const workers = 4
	opts := wideOptions(corpus, workers, faults.New(1,
		faults.Rule{Stage: "screen", Ordinal: -1, Kind: faults.Delay, Delay: perJoin}))
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(3 * perJoin)
		cancel()
	}()
	start := time.Now()
	res, err := AugmentContext(ctx, corpus.Base, cands, opts)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("AugmentContext = %v, want ErrCanceled", err)
	}
	if res == nil || res.CandidatesConsidered == 0 || res.Table != nil || len(res.Batches) != 0 {
		t.Fatalf("partial result of a run canceled in the screen: %+v", res)
	}
	if drain := time.Duration(len(cands)/workers) * perJoin; elapsed > drain/2 {
		t.Fatalf("canceled run took %v, draining the screen would take %v — not prompt", elapsed, drain)
	}
}

// TestScreenBoundsWidth pins the one candidate cap the run has: on the wide
// fixture at the default budget the tables the screen keeps estimate no more
// features than the coreset has rows (unless the best table alone is kept),
// and selection is offered no more than that either.
func TestScreenBoundsWidth(t *testing.T) {
	defer parallel.SetMaxWorkers(0)
	corpus, cands := wideCorpus(t)
	opts := chaosOptions(corpus, 2, nil)
	opts.Trace = obs.New("augment")
	res, err := Augment(corpus.Base, cands, opts)
	if err != nil {
		t.Fatal(err)
	}
	rows := int64(opts.CoresetSize)
	var kept, features int64
	for _, s := range res.Screened {
		if s.Kept {
			kept++
			features += int64(s.Features)
		}
	}
	if res.CandidatesScreened == 0 || kept == 0 {
		t.Fatalf("fixture did not engage the screen: dropped %d, kept %d", res.CandidatesScreened, kept)
	}
	if kept > 1 && features > rows {
		t.Fatalf("screen kept %d tables estimating %d features, over the %d-row coreset", kept, features, rows)
	}
	if offered := res.Trace.Counters["select.features_offered"]; offered > rows {
		t.Fatalf("select.features_offered = %d, over the %d-row coreset", offered, rows)
	}
}
