package parallel

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachCoversAllIndices(t *testing.T) {
	defer SetMaxWorkers(0)
	for _, workers := range []int{0, 1, 2, 8} {
		n := 1000
		seen := make([]int32, n)
		ForEach(workers, n, func(i int) { atomic.AddInt32(&seen[i], 1) })
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestForEachZeroAndNegative(t *testing.T) {
	calls := 0
	ForEach(4, 0, func(int) { calls++ })
	ForEach(4, -3, func(int) { calls++ })
	if calls != 0 {
		t.Fatalf("ForEach on empty range made %d calls", calls)
	}
}

// TestForEachNestedBounded exercises the oversubscription guard: nested
// ForEach calls from many concurrent parents must complete, cover every
// index, and never exceed the process-wide worker cap (parents + helpers).
func TestForEachNestedBounded(t *testing.T) {
	defer SetMaxWorkers(0)
	const cap = 4
	SetMaxWorkers(cap)
	var running, peak atomic.Int64
	track := func() func() {
		cur := running.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		return func() { running.Add(-1) }
	}
	const parents, children = 6, 50
	var total atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < parents; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ForEach(0, children, func(int) {
				done := track()
				defer done()
				ForEach(0, 4, func(int) { total.Add(1) })
			})
		}()
	}
	wg.Wait()
	if got := total.Load(); got != parents*children*4 {
		t.Fatalf("nested ForEach ran %d leaf items, want %d", got, parents*children*4)
	}
	// Each of the `parents` goroutines works inline regardless of the cap;
	// only helpers are capped, so the hard bound is parents + cap.
	if p := peak.Load(); p > parents+cap {
		t.Fatalf("peak concurrent workers %d exceeds bound %d", p, parents+cap)
	}
}

func TestMapOrderedResultsAndFirstError(t *testing.T) {
	defer SetMaxWorkers(0)
	SetMaxWorkers(8)
	vals, err := Map(0, 100, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if v != i*i {
			t.Fatalf("vals[%d] = %d", i, v)
		}
	}
	errA, errB := errors.New("a"), errors.New("b")
	_, err = Map(0, 100, func(i int) (int, error) {
		switch i {
		case 97:
			return 0, errB
		case 13:
			return 0, errA
		}
		return i, nil
	})
	if err != errA {
		t.Fatalf("Map error = %v, want lowest-index error %v", err, errA)
	}
}

func TestMapReduceIndexOrder(t *testing.T) {
	defer SetMaxWorkers(0)
	SetMaxWorkers(8)
	got, err := MapReduce(0, 50, func(i int) (int, error) { return i, nil },
		[]int(nil), func(acc []int, v int) []int { return append(acc, v) })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("reduction out of order at %d: %v", i, got[:i+1])
		}
	}
}

func TestBlocksFixedPartition(t *testing.T) {
	defer SetMaxWorkers(0)
	// The partition must depend only on (n, blockSize), not on workers.
	collect := func(workers int) [][2]int {
		var mu sync.Mutex
		var spans [][2]int
		Blocks(workers, 103, 10, func(lo, hi int) {
			mu.Lock()
			spans = append(spans, [2]int{lo, hi})
			mu.Unlock()
		})
		return spans
	}
	SetMaxWorkers(1)
	one := collect(1)
	SetMaxWorkers(8)
	eight := collect(0)
	if len(one) != 11 || len(eight) != 11 {
		t.Fatalf("block counts %d/%d, want 11", len(one), len(eight))
	}
	covered := make([]bool, 103)
	for _, s := range one {
		for i := s[0]; i < s[1]; i++ {
			if covered[i] {
				t.Fatalf("index %d covered twice", i)
			}
			covered[i] = true
		}
	}
	for i, c := range covered {
		if !c {
			t.Fatalf("index %d not covered", i)
		}
	}
}

func TestMapBlocksOrderedPartials(t *testing.T) {
	defer SetMaxWorkers(0)
	SetMaxWorkers(8)
	parts := MapBlocks(0, 1000, 64, func(lo, hi int) int {
		s := 0
		for i := lo; i < hi; i++ {
			s += i
		}
		return s
	})
	total := 0
	for _, p := range parts {
		total += p
	}
	if total != 999*1000/2 {
		t.Fatalf("MapBlocks sum = %d", total)
	}
}

func TestSplitSeedDeterministicAndDistinct(t *testing.T) {
	if SplitSeed(42, 7) != SplitSeed(42, 7) {
		t.Fatal("SplitSeed is not deterministic")
	}
	seen := map[int64]bool{}
	for i := int64(0); i < 10000; i++ {
		s := SplitSeed(1, i)
		if seen[s] {
			t.Fatalf("seed collision at index %d", i)
		}
		seen[s] = true
	}
	if SplitSeed(1, 0) == SplitSeed(2, 0) {
		t.Fatal("different parents must derive different children")
	}
	a, b := RNG(5, 3), RNG(5, 3)
	for i := 0; i < 10; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("RNG(seed, index) must be reproducible")
		}
	}
}

// TestForEachRaceStress drives many overlapping pools so `go test -race`
// exercises the slot accounting and index dispatch under contention.
func TestForEachRaceStress(t *testing.T) {
	defer SetMaxWorkers(0)
	SetMaxWorkers(8)
	var wg sync.WaitGroup
	var total atomic.Int64
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				out := make([]int64, 64)
				ForEach(0, 64, func(i int) { out[i] = int64(i) })
				for i, v := range out {
					if v != int64(i) {
						panic("lost write")
					}
					total.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if total.Load() != 16*20*64 {
		t.Fatal("stress iterations incomplete")
	}
}

// TestForEachPanicFirstOrdinalWins: a panic in a work item must surface on
// the calling goroutine as a recoverable *PanicError — never crash the
// process from a helper goroutine — and when several items panic, the lowest
// index must win at every worker count.
func TestForEachPanicFirstOrdinalWins(t *testing.T) {
	defer SetMaxWorkers(0)
	for _, workers := range []int{1, 8} {
		SetMaxWorkers(workers)
		var ran atomic.Int64
		err := func() (err *PanicError) {
			defer func() {
				p := recover()
				pe, ok := p.(*PanicError)
				if !ok {
					t.Fatalf("workers=%d: recovered %v, want *PanicError", workers, p)
				}
				err = pe
			}()
			ForEach(0, 100, func(i int) {
				ran.Add(1)
				if i == 23 || i == 71 {
					panic(i)
				}
			})
			return nil
		}()
		if err == nil || err.Index != 23 {
			t.Fatalf("workers=%d: panic index = %v, want 23", workers, err)
		}
		if v, ok := err.Value.(int); !ok || v != 23 {
			t.Fatalf("workers=%d: panic value = %v, want 23", workers, err.Value)
		}
		// Determinism requires every item to run even after a panic.
		if got := ran.Load(); got != 100 {
			t.Fatalf("workers=%d: %d items ran, want 100", workers, got)
		}
	}
}

// TestMapPanicBecomesError: Map converts a work-item panic into the error of
// that index, losing to lower-index ordinary errors deterministically.
func TestMapPanicBecomesError(t *testing.T) {
	defer SetMaxWorkers(0)
	SetMaxWorkers(8)
	_, err := Map(0, 50, func(i int) (int, error) {
		if i == 31 {
			panic("injected")
		}
		return i, nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Index != 31 {
		t.Fatalf("Map panic error = %v, want *PanicError at 31", err)
	}
	errLow := errors.New("low")
	_, err = Map(0, 50, func(i int) (int, error) {
		switch i {
		case 7:
			return 0, errLow
		case 31:
			panic("injected")
		}
		return i, nil
	})
	if !errors.Is(err, errLow) {
		t.Fatalf("Map error = %v, want lowest-index error %v", err, errLow)
	}
}

// TestPanicErrorUnwrap: panic values that are errors stay reachable through
// errors.Is on the converted *PanicError.
func TestPanicErrorUnwrap(t *testing.T) {
	sentinel := errors.New("sentinel")
	_, err := Map(0, 4, func(i int) (int, error) {
		if i == 2 {
			panic(sentinel)
		}
		return i, nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("errors.Is through PanicError = false for %v", err)
	}
}

// TestForEachCtxCancelStopsClaiming: after cancellation, no new work items
// start and ForEachCtx reports ctx.Err() without draining the queue.
func TestForEachCtxCancelStopsClaiming(t *testing.T) {
	defer SetMaxWorkers(0)
	SetMaxWorkers(4)
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	const n = 1000
	err := ForEachCtx(ctx, 0, n, func(i int) {
		if started.Add(1) == 5 {
			cancel()
		}
		time.Sleep(100 * time.Microsecond)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ForEachCtx = %v, want context.Canceled", err)
	}
	// 4 workers were mid-item at cancel time; far fewer than n may start after.
	if got := started.Load(); got > n/2 {
		t.Fatalf("%d of %d items started after cancellation", got, n)
	}
}

// TestForEachCtxNilAndComplete: a nil ctx never cancels, and a live ctx that
// is never canceled runs every item and returns nil.
func TestForEachCtxNilAndComplete(t *testing.T) {
	defer SetMaxWorkers(0)
	for _, ctx := range []context.Context{nil, context.Background()} {
		var ran atomic.Int64
		if err := ForEachCtx(ctx, 0, 100, func(int) { ran.Add(1) }); err != nil {
			t.Fatalf("ForEachCtx = %v, want nil", err)
		}
		if ran.Load() != 100 {
			t.Fatalf("ran %d of 100 items", ran.Load())
		}
	}
}

// TestMapCtxCanceled: MapCtx reports ctx.Err() when canceled mid-run.
func TestMapCtxCanceled(t *testing.T) {
	defer SetMaxWorkers(0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := MapCtx(ctx, 0, 100, func(i int) (int, error) { return i, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("MapCtx under canceled ctx = %v, want context.Canceled", err)
	}
}

// TestScratchPoolSizedRetention: a sized pool must keep workspaces near the
// recent high-water mark (including exactly 2× it) and drop ones that dwarf
// it, so a burst of oversized work cannot pin its peak in the free list.
func TestScratchPoolSizedRetention(t *testing.T) {
	fresh := func() []byte { return make([]byte, 8) }
	p := NewScratchPoolSized(fresh, func(b []byte) int { return cap(b) })

	// Establish a 100-byte high-water mark across one full epoch.
	for i := 0; i < scratchEpochPuts+1; i++ {
		p.Put(make([]byte, 100))
	}
	// Exactly 2× the mark is retained; the pool should hand it back. Under
	// the race detector sync.Pool drops a share of Puts on purpose, so "must
	// be handed back" is only assertable without it.
	boundary := make([]byte, 200)
	p.Put(boundary)
	found := false
	for i := 0; i < scratchEpochPuts+2; i++ {
		if b := p.Get(); cap(b) == 200 {
			found = true
			break
		}
	}
	if !found && !raceEnabled {
		t.Fatal("workspace at exactly 2x the high-water mark was dropped")
	}

	// Far above the mark is dropped: no Get may ever see it again.
	for i := 0; i < 8; i++ {
		p.Put(make([]byte, 100))
	}
	p.Put(make([]byte, 100<<10))
	for i := 0; i < scratchEpochPuts+2; i++ {
		if b := p.Get(); cap(b) >= 100<<10 {
			t.Fatalf("oversized workspace (cap %d) was retained", cap(b))
		}
	}

	// The very first put of a fresh sized pool is always retained (no mark
	// to compare against yet).
	p2 := NewScratchPoolSized(fresh, func(b []byte) int { return cap(b) })
	p2.Put(make([]byte, 1<<20))
	if b := p2.Get(); cap(b) != 1<<20 && !raceEnabled {
		t.Fatal("first put must establish, not trip, the high-water mark")
	}
}

// TestScratchPoolSizedEpochAging: after two epochs of small puts, the old
// large mark ages out and large workspaces are dropped again.
func TestScratchPoolSizedEpochAging(t *testing.T) {
	p := NewScratchPoolSized(func() []byte { return nil }, func(b []byte) int { return cap(b) })
	p.Put(make([]byte, 1<<20)) // one huge burst workspace
	for i := 0; i < 2*scratchEpochPuts; i++ {
		p.Put(make([]byte, 64))
	}
	if !p.oversized(1 << 20) {
		t.Fatal("burst-sized workspace still within cap after the mark aged out")
	}
	if p.oversized(100) {
		t.Fatal("normal-sized workspace dropped")
	}
}
