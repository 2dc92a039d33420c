package runqueue

import (
	"testing"
	"time"

	"github.com/arda-ml/arda/internal/coreset"
	"github.com/arda-ml/arda/internal/join"
)

// TestSpecOptions checks the mapping from a submitted spec to the pipeline
// options a run executes with: every set field carries over, and every unset
// one takes its documented default.
func TestSpecOptions(t *testing.T) {
	defaults := Config{RunTimeout: 3 * time.Minute}

	set := Spec{Base: "b", Target: "y", Selector: "RIFS", Coreset: "leverage", Size: 96,
		Tau: 0.5, Seed: 9, Soft: "nearest", KNNImpute: 4, Significance: 20, Timeout: "45s"}
	opts, err := set.options(defaults)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Target != "y" || opts.CoresetStrategy != coreset.Leverage || opts.CoresetSize != 96 ||
		opts.TupleRatioTau != 0.5 || opts.Seed != 9 || opts.SoftMethod != join.NearestNeighbor ||
		opts.KNNImpute != 4 || opts.Significance != 20 || opts.Timeout != 45*time.Second || opts.Selector == nil {
		t.Fatalf("options of a fully set spec = %+v", opts)
	}

	bare := Spec{Base: "b", Target: "y"}
	opts, err = bare.options(defaults)
	if err != nil {
		t.Fatal(err)
	}
	if opts.CoresetStrategy != coreset.Uniform || opts.CoresetSize != 0 || opts.Seed != 1 ||
		opts.SoftMethod != join.TwoWayNearest || opts.Timeout != defaults.RunTimeout || opts.Selector != nil {
		t.Fatalf("options of a bare spec = %+v", opts)
	}
	if err := bare.Validate(); err != nil {
		t.Fatalf("a bare spec should validate: %v", err)
	}
}
