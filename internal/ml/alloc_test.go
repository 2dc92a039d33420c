package ml

import (
	"math/rand"
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
