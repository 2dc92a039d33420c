package ml

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"github.com/arda-ml/arda/internal/testenv"
)

// TestForestFitAllocs is the allocation-regression gate for the split kernel:
// with the pooled per-tree workspaces warm, fitting a tree must allocate far
// less than the reference kernel's per-node sorting (which allocates scratch and
// comparator closures on every split). The fitted tree's own nodes and
// importance slice are real output, so the budget is a ratio, not zero.
func TestForestFitAllocs(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("AllocsPerRun counts the race detector's bookkeeping; run via `make alloc`")
	}
	ds := makeClassification(300, 5, 45, 77)
	cfg := TreeConfig{MaxDepth: 10}
	rng := rand.New(rand.NewSource(1))
	FitTree(ds, nil, cfg, rng) // warm the workspace pool
	pooled := testing.AllocsPerRun(10, func() {
		FitTree(ds, nil, cfg, rng)
	})
	legacy := testing.AllocsPerRun(10, func() {
		fitTreeLegacy(ds, nil, cfg, rng)
	})
	if pooled*2 > legacy {
		t.Fatalf("pooled kernel allocates too much: %.0f vs %.0f legacy per tree", pooled, legacy)
	}
}

// mallocs reports the heap allocations f makes, as MemStats.Mallocs counts
// them. That counter is process-wide, and the runtime's own goroutines run on
// the test's P between the two reads: a GC cycle that starts creates its mark
// workers, and the scavenger it wakes grows a timer heap on a P that a
// GOMAXPROCS change emptied. Each is a one-off that adds 1–5 allocations to
// whichever measurement it lands in. f(i) is called for i = 0…n-1 and must
// allocate the same for every i, so the fewest any call counted is f's own.
func mallocs(n int, f func(i int)) uint64 {
	best := ^uint64(0)
	for i := range n {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f(i)
		runtime.ReadMemStats(&after)
		best = min(best, after.Mallocs-before.Mallocs)
	}
	return best
}

// nodesSink keeps treeAllocs' node slice on the heap, like a fitted tree's.
var nodesSink []treeNode

// treeAllocs counts the allocations a fitted tree owns: its struct, its
// importance slice, and its node slice grown one append at a time.
func treeAllocs(t *Tree) uint64 {
	return 2 + mallocs(3, func(int) {
		nodesSink = nil
		for range t.nodes {
			nodesSink = append(nodesSink, treeNode{})
		}
	})
}

// TestBootstrapTreeAllocs: once a workspace has served one bootstrap tree of
// a forest, every further tree — its bootstrap draw included — allocates
// nothing but its Tree, however many distinct rows its bootstrap drew. The
// workspace is sized by the sample count, which every tree of a forest
// shares (sized by the unit count, it regrew whenever a bootstrap drew more
// distinct rows than any before), and its RNG is reseeded, not reallocated,
// which grows the same tree a fresh rand.NewSource(seed) does.
//
// Three workspaces walk the same seeds, so each holds the same state when it
// grows a seed's tree: a workspace that regrew would count the regrowth in
// all three, while the runtime's one-off allocations (see mallocs) land in
// at most one.
func TestBootstrapTreeAllocs(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("MemStats counts the race detector's bookkeeping; run via `make alloc`")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, sh := range []struct {
		name string
		ds   *Dataset
		cfg  ForestConfig
	}{
		{"presorted regression", oneHotFixture(192, 40, 90, Regression, 205), ForestConfig{MaxDepth: 12}},
		{"flat classification", makeClassification(160, 6, 144, 201), ForestConfig{MaxDepth: 10}},
	} {
		_, tc := resolveForestConfig(sh.ds, sh.cfg)
		ss := splitSetFor(sh.ds, tc, 1)
		ws := []*treeWorkspace{{}, {}, {}}
		for _, w := range ws {
			w.bootstrapTree(ss, tc, 0)
		}
		fresh := &treeWorkspace{}
		minUnits, maxUnits := ss.n, 0
		for seed := int64(1); seed <= 20; seed++ {
			var tree *Tree
			got := mallocs(len(ws), func(i int) { tree = ws[i].bootstrapTree(ss, tc, seed) })

			rng := rand.New(rand.NewSource(seed))
			drawBootstrap(fresh, ss.n, rng)
			units := 0
			for _, c := range fresh.cnt {
				if c > 0 {
					units++
				}
			}
			minUnits, maxUnits = min(minUnits, units), max(maxUnits, units)
			if want := treeAllocs(tree); got != want {
				t.Errorf("%s, bootstrap %d (%d units): %d allocations, want the tree's %d", sh.name, seed, units, got, want)
			}
			if want := fitTreeFromSplitSet(ss, tc, rng, fresh); !reflect.DeepEqual(tree, want) {
				t.Errorf("%s, bootstrap %d: the reseeded stream grew a different tree than a fresh source", sh.name, seed)
			}
		}
		if minUnits == maxUnits {
			t.Fatalf("%s: every bootstrap drew %d distinct rows; the test needs them to vary", sh.name, minUnits)
		}
	}
}
