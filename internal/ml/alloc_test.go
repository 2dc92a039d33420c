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

// nodesSink keeps treeAllocs' node slice on the heap, like a fitted tree's.
var nodesSink []treeNode

// treeAllocs counts the allocations a fitted tree owns: its struct, its
// importance slice, and its node slice grown one append at a time.
func treeAllocs(t *Tree) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	nodesSink = nil
	for range t.nodes {
		nodesSink = append(nodesSink, treeNode{})
	}
	runtime.ReadMemStats(&after)
	return 2 + after.Mallocs - before.Mallocs
}

// TestBootstrapTreeAllocs: once a workspace has served one bootstrap tree of
// a forest, every further tree — its bootstrap draw included — allocates
// nothing but its Tree, however many distinct rows its bootstrap drew. The
// workspace is sized by the sample count, which every tree of a forest
// shares (sized by the unit count, it regrew whenever a bootstrap drew more
// distinct rows than any before), and its RNG is reseeded, not reallocated,
// which grows the same tree a fresh rand.NewSource(seed) does.
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
		ws, fresh := &treeWorkspace{}, &treeWorkspace{}
		ws.bootstrapTree(ss, tc, 0)
		minUnits, maxUnits := ss.n, 0
		for seed := int64(1); seed <= 20; seed++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			tree := ws.bootstrapTree(ss, tc, seed)
			runtime.ReadMemStats(&after)

			rng := rand.New(rand.NewSource(seed))
			drawBootstrap(fresh, ss.n, rng)
			units := 0
			for _, c := range fresh.cnt {
				if c > 0 {
					units++
				}
			}
			minUnits, maxUnits = min(minUnits, units), max(maxUnits, units)
			if got, want := after.Mallocs-before.Mallocs, treeAllocs(tree); got != want {
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
