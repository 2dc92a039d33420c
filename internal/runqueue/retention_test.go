package runqueue

import (
	"os"
	"runtime"
	"testing"
	"time"

	"github.com/arda-ml/arda/internal/parallel"
	"github.com/arda-ml/arda/internal/testenv"
)

// maxRetainedPerRun bounds the live heap a terminal run may cost the
// manager: its Record (~1–2 KB with the result) and the map entry holding
// it. A run's event history alone is ~14 KB, and its replay buffer was once
// preallocated at 1.7 MB.
const maxRetainedPerRun = 4 << 10

// liveHeap returns the bytes still reachable after two collections (the
// second empties the sync.Pool victim caches the first one filled).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestFinishedRunsRetainOnlyRecords: a manager keeps nothing of a terminal
// run but its Record. Forty runs go through one manager; the live heap after
// run 40 may exceed the one after run 10 by at most maxRetainedPerRun per
// run in between. The first ten runs warm every pool and cache, so what
// grows after them is retention. Live heap, not allocation counts: it is
// what the daemon's RSS follows, and it does not move with the runtime's
// own allocations.
func TestFinishedRunsRetainOnlyRecords(t *testing.T) {
	defer parallel.SetMaxWorkers(0)
	defer testenv.NoGoroutineLeak(t)()
	dataDir, base, target := writeCorpus(t)
	m := openManager(t, Config{Logf: func(string, ...any) {}})
	const warm, runs = 10, 40
	var atWarm uint64
	for i := 1; i <= runs; i++ {
		rec, err := m.Submit(fastSpec(dataDir, base, target))
		if err != nil {
			t.Fatal(err)
		}
		if final := waitTerminal(t, m, rec.ID, 2*time.Minute); final.State != StateCompleted {
			t.Fatalf("run %d finished %s (%s), want completed", i, final.State, final.Error)
		}
		waitSettled(t, m, time.Minute)
		stream, path, err := m.Stream(rec.ID)
		if err != nil || stream != nil {
			t.Fatalf("run %d: Stream kept a stream: %v, err %v; a finished run keeps none", i, stream != nil, err)
		}
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("run %d: its events are not published: %v", i, err)
		}
		if i == warm {
			atWarm = liveHeap()
		}
	}
	grown := int64(liveHeap()) - int64(atWarm)
	t.Logf("live heap %d KB after run %d, %+d bytes by run %d (%+d per run)",
		atWarm>>10, warm, grown, runs, grown/(runs-warm))
	if grown > maxRetainedPerRun*(runs-warm) {
		t.Fatalf("live heap grew %d bytes over %d finished runs (%d per run), want ≤ %d per run",
			grown, runs-warm, grown/(runs-warm), maxRetainedPerRun)
	}
	checkAccounting(t, m)
	if err := m.Close(time.Minute); err != nil {
		t.Fatal(err)
	}
}
