package checkpoint

import (
	"testing"

	"github.com/arda-ml/arda/internal/testenv"
)

// With checkpointing disabled the pipeline holds a nil *Log; Save on it must
// be free — zero allocations — so Options.CheckpointDir unset costs nothing
// on the hot path.
func TestNilLogSaveZeroAllocs(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("AllocsPerRun counts the race detector's bookkeeping; run via `make alloc`")
	}
	var l *Log
	p := samplePayload(0)
	allocs := testing.AllocsPerRun(1000, func() {
		if err := l.Save("prefilter", &p); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("nil Log.Save allocates %.1f per call, want 0", allocs)
	}
}
