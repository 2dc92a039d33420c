package core

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/arda-ml/arda/internal/eval"
	"github.com/arda-ml/arda/internal/faults"
	"github.com/arda-ml/arda/internal/ml"
	"github.com/arda-ml/arda/internal/obs"
	"github.com/arda-ml/arda/internal/parallel"
	"github.com/arda-ml/arda/internal/testenv"
)

// histCounts reduces a traced run's histogram snapshot to name → observation
// count, the scheduling-independent part of the distribution (bucket contents
// are wall-clock and may differ between runs).
func histCounts(t *testing.T, workers int) map[string]int64 {
	t.Helper()
	res := tracedRun(t, workers, obs.New("augment"))
	if res.Trace == nil || len(res.Trace.Histograms) == 0 {
		t.Fatal("traced run produced no histograms")
	}
	counts := map[string]int64{}
	for name, st := range res.Trace.Histograms {
		counts[name] = st.Count
	}
	return counts
}

// TestTelemetryHistogramCountsWorkerInvariant asserts the histogram registry
// exposes the same latency families with identical observation counts at 1
// and 8 workers: every span observes its duration exactly once regardless of
// scheduling, so only bucket placement (wall-clock) may vary.
func TestTelemetryHistogramCountsWorkerInvariant(t *testing.T) {
	defer parallel.SetMaxWorkers(0)
	one := histCounts(t, 1)
	eight := histCounts(t, 8)
	if !reflect.DeepEqual(one, eight) {
		t.Fatalf("histogram observation counts differ:\n1 worker:  %v\n8 workers: %v", one, eight)
	}
	// The stage histograms pre-registered by the pipeline must all have fired,
	// as must the per-item and per-model families threaded through the layers.
	for _, name := range append(append([]string{}, pipelineStages...),
		"join.cand", "select.rep", "rep.inject", "rep.forest", "rep.sparse", "rep.aggregate",
		"materialize.cand", "evaluate.encode", "evaluate.base", "evaluate.augmented",
		"select.tree_fit", "select.subset_score") {
		if one[name] == 0 {
			t.Fatalf("histogram %q never observed (have %v)", name, one)
		}
	}
}

// streamShape runs the traced pipeline with a StreamSink attached and
// returns the scheduling-independent shape of the event stream: the sorted
// multiset of (type, name, path) triples, plus the drained subscription for
// completeness checks.
func streamShape(t *testing.T, workers int) ([]string, []obs.Event) {
	t.Helper()
	stream := obs.NewStreamSink(0)
	// A buffer larger than the run's event count makes "fast subscriber"
	// deterministic: nothing can drop, no concurrent reader races the run.
	sub := stream.Subscribe(1 << 16)
	tracedRun(t, workers, obs.New("augment", stream))
	var evs []obs.Event
	for ev := range sub.Events() {
		evs = append(evs, ev)
	}
	if sub.Dropped() != 0 {
		t.Fatalf("fast subscriber dropped %d events", sub.Dropped())
	}
	if int64(len(evs)) != stream.Emitted() {
		t.Fatalf("fast subscriber saw %d of %d emitted events", len(evs), stream.Emitted())
	}
	shape := make([]string, len(evs))
	for i, ev := range evs {
		shape[i] = fmt.Sprintf("%s|%s|%s", ev.Type, ev.Name, ev.Path)
	}
	sort.Strings(shape)
	return shape, evs
}

// TestTelemetryStreamStructureWorkerInvariant asserts a live event stream is
// structure-identical at 1 and 8 workers — same multiset of (type, name,
// path) — terminates with exactly one run event, and that a fast subscriber
// sees every emitted event with zero drops.
func TestTelemetryStreamStructureWorkerInvariant(t *testing.T) {
	defer parallel.SetMaxWorkers(0)
	defer testenv.NoGoroutineLeak(t)()

	one, evs := streamShape(t, 1)
	eight, _ := streamShape(t, 8)
	if !reflect.DeepEqual(one, eight) {
		t.Fatalf("event stream shape differs between 1 and 8 workers (%d vs %d events)", len(one), len(eight))
	}

	if len(evs) == 0 {
		t.Fatal("stream delivered no events")
	}
	if last := evs[len(evs)-1]; last.Type != obs.EventRun {
		t.Fatalf("stream must terminate with the run event, got %q %q", last.Type, last.Name)
	}
	kinds := map[string]int{}
	for _, ev := range evs {
		kinds[ev.Type]++
	}
	if kinds[obs.EventRun] != 1 {
		t.Fatalf("want exactly one run event, got %d", kinds[obs.EventRun])
	}
	for _, k := range []string{obs.EventSpan, obs.EventCounter, obs.EventHist} {
		if kinds[k] == 0 {
			t.Fatalf("stream missing %q events: %v", k, kinds)
		}
	}
}

// TestTelemetryInterruptedRunFlushesTrace kills a run mid-join (delay faults
// plus a timed cancel) and asserts the interruption still publishes complete
// telemetry: Result.Trace holds the partial snapshot, the -trace NDJSON file
// is atomically renamed into place, every line parses as an event, and the
// stream ends with the terminal run event. This is the crash-observability
// contract behind cmd/arda's exit-code-2 path.
func TestTelemetryInterruptedRunFlushesTrace(t *testing.T) {
	defer parallel.SetMaxWorkers(0)
	defer testenv.NoGoroutineLeak(t)()
	corpus, cands := chaosCorpus(t)

	path := filepath.Join(t.TempDir(), "partial.ndjson")
	sink, err := obs.NewNDJSONFileSink(path)
	if err != nil {
		t.Fatal(err)
	}
	stream := obs.NewStreamSink(0)

	const perJoin = 30 * time.Millisecond
	opts := chaosOptions(corpus, 4, faults.New(1,
		faults.Rule{Stage: "join", Ordinal: -1, Kind: faults.Delay, Delay: perJoin}))
	opts.Trace = obs.New("augment", sink, stream)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * perJoin)
		cancel()
	}()
	res, err := AugmentContext(ctx, corpus.Base, cands, opts)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("AugmentContext = %v, want ErrCanceled", err)
	}
	if res == nil || res.Trace == nil {
		t.Fatal("interrupted run must still snapshot its trace")
	}

	// The file sink publishes under the final name only on Flush, so its
	// existence proves the interrupted trace was finished, not abandoned.
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("interrupted run left no published trace file: %v", err)
	}
	defer f.Close()
	var last obs.Event
	lines := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			t.Fatalf("trace file line %d is empty", lines+1)
		}
		var ev obs.Event
		if err := json.Unmarshal(raw, &ev); err != nil {
			t.Fatalf("trace file line %d invalid: %v", lines+1, err)
		}
		last = ev
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Fatal("published trace file is empty")
	}
	if last.Type != obs.EventRun {
		t.Fatalf("trace file must end with the run event, got %q %q", last.Type, last.Name)
	}

	// The stream sink was flushed too: a post-flush subscriber replays the
	// recorded history through an already-closed channel.
	sub := stream.Subscribe(0)
	replayed := 0
	for range sub.Events() {
		replayed++
	}
	if replayed == 0 {
		t.Fatal("flushed stream replayed no history")
	}
}

// failingSelector supports every task and fails every selection: a fatal,
// non-interrupt stage error.
type failingSelector struct{}

func (failingSelector) Name() string          { return "failing" }
func (failingSelector) Supports(ml.Task) bool { return true }
func (failingSelector) Select(*ml.Dataset, eval.Fitter, int64) ([]int, error) {
	return nil, errors.New("boom")
}

// TestTelemetryFatalStageErrorFinishesTrace is the failure-side twin of the
// test above: a stage that fails for a reason other than interruption still
// returns the partial Result with its trace finished — the file sink
// published and ending with the run event, a live subscriber's channel
// closed — as Options.Trace documents.
func TestTelemetryFatalStageErrorFinishesTrace(t *testing.T) {
	defer parallel.SetMaxWorkers(0)
	defer testenv.NoGoroutineLeak(t)()
	corpus, cands := chaosCorpus(t)

	path := filepath.Join(t.TempDir(), "failed.ndjson")
	sink, err := obs.NewNDJSONFileSink(path)
	if err != nil {
		t.Fatal(err)
	}
	stream := obs.NewStreamSink(0)
	sub := stream.Subscribe(1 << 16)

	opts := chaosOptions(corpus, 2, nil)
	opts.Selector = failingSelector{}
	opts.Trace = obs.New("augment", sink, stream)
	res, err := AugmentContext(context.Background(), corpus.Base, cands, opts)
	if err == nil || isInterrupt(err) || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("AugmentContext = %v, want the selector's error", err)
	}
	if res == nil || res.Trace == nil {
		t.Fatalf("a failed stage must still return the partial Result with its trace: %+v", res)
	}
	if res.Table != nil || res.CandidatesConsidered == 0 {
		t.Fatalf("partial Result = %+v, want the attrition so far and no final table", res)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("failed run left no published trace file: %v", err)
	}
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	var last obs.Event
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil || last.Type != obs.EventRun {
		t.Fatalf("trace file must end with the run event, got %q (%v)", lines[len(lines)-1], err)
	}

	// Finish flushed the stream sink, which closes every subscription: the
	// drain below returns instead of blocking until the test times out.
	closed := make(chan int)
	go func() {
		n := 0
		for range sub.Events() {
			n++
		}
		closed <- n
	}()
	select {
	case n := <-closed:
		if n == 0 {
			t.Fatal("subscriber saw no events before the stream closed")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("subscriber's channel never closed: the trace was not finished")
	}
}
