package runqueue

import (
	"strings"
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
		Tau: 0.5, Seed: 9, Soft: "nearest", Significance: 20, Timeout: "45s"}
	opts, err := set.options(defaults)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Target != "y" || opts.CoresetStrategy != coreset.Leverage || opts.CoresetSize != 96 ||
		opts.TupleRatioTau != 0.5 || opts.Seed != 9 || opts.SoftMethod != join.NearestNeighbor ||
		opts.Significance != 20 || opts.Timeout != 45*time.Second || opts.Selector == nil {
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

// removedFieldSpecs are valid specs that each set one removed field, by its
// JSON name: a submission naming any of them is refused, and so is a run an
// earlier version persisted with one.
var removedFieldSpecs = map[string]Spec{
	"plan":       {Base: "b", Target: "y", Plan: "table"},
	"budget":     {Base: "b", Target: "y", Budget: 48},
	"transitive": {Base: "b", Target: "y", Transitive: true},
	"knn_impute": {Base: "b", Target: "y", KNNImpute: 3},
}

func TestSpecValidateRefusesRemovedFields(t *testing.T) {
	for name, spec := range removedFieldSpecs {
		t.Run(name, func(t *testing.T) {
			if err := spec.Validate(); err == nil || !strings.Contains(err.Error(), "sets "+name) {
				t.Errorf("Validate = %v, want an error naming %s", err, name)
			}
		})
	}
}

func TestSpecOptionsRefusesRemovedFields(t *testing.T) {
	for name, spec := range removedFieldSpecs {
		t.Run(name, func(t *testing.T) {
			if _, err := spec.options(Config{}); err == nil || !strings.Contains(err.Error(), "sets "+name) {
				t.Errorf("options of a persisted spec = %v, want an error naming %s", err, name)
			}
		})
	}
}
