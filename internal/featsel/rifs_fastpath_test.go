package featsel

import (
	"math"
	"strings"
	"testing"

	"github.com/arda-ml/arda/internal/ml"
	"github.com/arda-ml/arda/internal/obs"
)

// TestNuDefaulting pins the NuSet sentinel semantics: a zero Nu is "unset"
// (defaults to 1, the forest ranking alone) unless NuSet marks it as an
// intentional sparse-only endpoint; out-of-range values fall back to 1.
func TestNuDefaulting(t *testing.T) {
	cases := []struct {
		name string
		cfg  RIFSConfig
		want float64
	}{
		{"unset", RIFSConfig{}, 1},
		{"explicit_zero", RIFSConfig{Nu: 0, NuSet: true}, 0},
		{"explicit_one", RIFSConfig{Nu: 1}, 1},
		{"mid", RIFSConfig{Nu: 0.3}, 0.3},
		{"below_range", RIFSConfig{Nu: -0.2, NuSet: true}, 1},
		{"above_range", RIFSConfig{Nu: 1.5}, 1},
	}
	for _, tc := range cases {
		tc.cfg.defaults()
		if tc.cfg.Nu != tc.want {
			t.Fatalf("%s: Nu defaulted to %v, want %v", tc.name, tc.cfg.Nu, tc.want)
		}
	}
}

// TestNuEndpointsExact: at ν = 1 the aggregate ranking must equal the forest
// ranking alone, and at ν = 0 (with NuSet) the sparse ranking alone —
// bit-identical, since the skipped half's weight is exactly zero.
func TestNuEndpointsExact(t *testing.T) {
	ds := planted(ml.Regression, 120, 2, 10, 5)
	r := &RIFS{}

	cfg := RIFSConfig{Nu: 1, Forest: ForestRanker{NTrees: 10, MaxDepth: 6}}
	cfg.defaults()
	agg, err := r.aggregateRanking(&cfg, ds, 17, nil)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := cfg.Forest.Rank(ds, 17)
	if err != nil {
		t.Fatal(err)
	}
	for j, want := range RanksOf(rf) {
		if agg[j] != want {
			t.Fatalf("nu=1: agg[%d] = %v, want forest rank %v", j, agg[j], want)
		}
	}

	cfg = RIFSConfig{Nu: 0, NuSet: true, Forest: ForestRanker{NTrees: 10, MaxDepth: 6}}
	cfg.defaults()
	agg, err = r.aggregateRanking(&cfg, ds, 17, nil)
	if err != nil {
		t.Fatal(err)
	}
	sr := &SparseRegressionRanker{Config: cfg.Sparse}
	ss, err := sr.Rank(ds, 17)
	if err != nil {
		t.Fatal(err)
	}
	for j, want := range RanksOf(ss) {
		if agg[j] != want {
			t.Fatalf("nu=0: agg[%d] = %v, want sparse rank %v", j, agg[j], want)
		}
	}
}

// TestNuEndpointsSelect: both endpoints must run end to end and return a
// valid subset of feature indices.
func TestNuEndpointsSelect(t *testing.T) {
	ds := planted(ml.Regression, 150, 2, 12, 41)
	for _, cfg := range []RIFSConfig{
		{Nu: 1, K: 4, Forest: ForestRanker{NTrees: 10, MaxDepth: 6}},
		{Nu: 0, NuSet: true, K: 4, Forest: ForestRanker{NTrees: 10, MaxDepth: 6}},
	} {
		r := &RIFS{Config: cfg}
		sel, err := r.Select(ds, fastForest(3), 42)
		if err != nil {
			t.Fatalf("nu=%v: %v", cfg.Nu, err)
		}
		for _, j := range sel {
			if j < 0 || j >= ds.D {
				t.Fatalf("nu=%v: selected column %d out of range", cfg.Nu, j)
			}
		}
	}
}

// TestRStarNeverShortCircuits: all K repetitions always run — one select.rep
// span each — and r* comes back as exact multiples of 1/K. Every repetition
// splits into its parts: the paper's ensemble (ν = 0.5) shows both ranking
// halves, the default (ν = 1) the forest alone.
func TestRStarNeverShortCircuits(t *testing.T) {
	ds := planted(ml.Classification, 150, 2, 10, 19)
	for _, tc := range []struct {
		nu    float64
		parts string
	}{
		{0.5, "rep.inject rep.forest rep.sparse rep.aggregate"},
		{0, "rep.inject rep.forest rep.aggregate"},
	} {
		tr := obs.New("test")
		r := &RIFS{Config: RIFSConfig{K: 5, Nu: tc.nu, Forest: ForestRanker{NTrees: 8, MaxDepth: 5}}}
		r.AttachSpan(tr.Root())
		rstar, err := r.RStar(ds, 23)
		if err != nil {
			t.Fatal(err)
		}
		stats := tr.Finish()
		if got := stats.SpanCounts()["select.rep"]; got != 5 {
			t.Fatalf("nu=%v: ran %d repetitions, want K=5", tc.nu, got)
		}
		// The parts fit inside their repetition (the two ranking halves may
		// overlap, so no sum is asserted).
		for _, rep := range stats.Root.Children {
			var names []string
			for _, c := range rep.Children {
				names = append(names, c.Name)
				if c.Dur > rep.Dur {
					t.Fatalf("%s[%d]: child %s (%v) outlasts it (%v)", rep.Name, rep.Ord, c.Name, c.Dur, rep.Dur)
				}
			}
			if got := strings.Join(names, " "); got != tc.parts {
				t.Fatalf("nu=%v: %s[%d] has children %q, want %s", tc.nu, rep.Name, rep.Ord, got, tc.parts)
			}
		}
		for j, v := range rstar {
			scaled := v * 5
			if math.Abs(scaled-math.Round(scaled)) > 1e-12 {
				t.Fatalf("nu=%v: r*[%d] = %v is not a multiple of 1/K", tc.nu, j, v)
			}
		}
	}
}
