package ml

import (
	"math"
	"math/rand"
	"testing"
)

// constantFixture is a design with no two-valued column and a constant in
// every fourth one: column j's kind is j mod 4 — a continuous column, one of
// eight levels, a constant (2.5, a mix of -0 and +0, or +Inf, in turn), and
// another continuous one. With zeroFirst column 0 is a constant too, so the
// tree has no plane of column 0's own to sum its nodes along. The target
// draws on the first continuous and the eight-level columns: three classes,
// or a continuous response.
func constantFixture(n, d int, task Task, seed int64, zeroFirst bool) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n*d)
	y := make([]float64, n)
	negZero := math.Copysign(0, -1)
	for i := 0; i < n; i++ {
		row := x[i*d : (i+1)*d]
		for j := range row {
			u := rng.Float64()
			switch j % 4 {
			case 0, 3:
				row[j] = rng.NormFloat64()
			case 1:
				row[j] = math.Floor(u*8) / 8
			case 2:
				switch j / 4 % 3 {
				case 0:
					row[j] = 2.5
				case 1:
					if u < 0.5 {
						row[j] = negZero
					}
				default:
					row[j] = math.Inf(1)
				}
			}
		}
		s := row[1] + 0.5*row[3]
		if zeroFirst {
			row[0] = -1.25
		} else {
			s += row[0]
		}
		if task == Classification {
			y[i] = float64(int(math.Abs(s)*2) % 3)
		} else {
			y[i] = s + 0.1*rng.NormFloat64()
		}
	}
	return mustDataset(x, n, d, y, task, 3)
}

// povertyShapeFixture is the design tall-base's evaluation forests fit: the
// train split of Poverty ×8's encoded base table. county_id has 12,000
// levels of one row each; the encoder keeps 31 as indicators and pools the
// rest into county_id=<other>, and the holdout takes the one high row of
// about a quarter of those 31 — here the first constCounty — which leave
// all-zero, constant columns. state's 50 levels pool to 31 indicators plus
// state=<other>. cont numeric columns follow, alternately a row's own
// continuous value (population, a county table's column) and one of its
// state's 50 (a state table's column, joined through state).
func povertyShapeFixture(n, constCounty, cont int, task Task, seed int64) *Dataset {
	const county, states = 31, 50
	rng := rand.New(rand.NewSource(seed))
	d := 2*(county+1) + cont
	x := make([]float64, n*d)
	y := make([]float64, n)
	single := rng.Perm(n)[:county-constCounty] // the rows of the kept counties
	stateVal := make([]float64, cont*states)
	for i := range stateVal {
		stateVal[i] = rng.NormFloat64()
	}
	for i := 0; i < n; i++ {
		row := x[i*d : (i+1)*d]
		row[county] = 1 // county_id=<other>
		level := rng.Intn(states)
		row[county+1+min(level, county)] = 1
		s := float64(level%7) / 3
		for k, j := 0, 2*(county+1); j < d; k, j = k+1, j+1 {
			if k%2 == 0 {
				row[j] = rng.NormFloat64()
			} else {
				row[j] = stateVal[k*states+level]
			}
		}
		if cont > 0 {
			s += row[2*(county+1)]
		}
		if task == Classification {
			y[i] = float64(int(math.Abs(s)*2) % 3)
		} else {
			y[i] = s + 0.3*rng.NormFloat64()
		}
	}
	for k, r := range single {
		row := x[r*d : (r+1)*d]
		row[county] = 0
		row[constCounty+k] = 1
		y[r] += 2
	}
	return mustDataset(x, n, d, y, task, 3)
}

// constantShapes are the designs whose constant columns the kernel skips,
// each fitted through FitForest alone and through a split view at 1 and 8
// workers (everyForestPath) and pinned to the fingerprint the kernel gave
// before it skipped them.
var constantShapes = []struct {
	name string
	ds   *Dataset
	cfg  ForestConfig
	want uint64
}{
	// No two-valued column and column 0 ordered: a node's sums run along
	// column 0's plane, and a unit plane would reorder them.
	{"presorted", constantFixture(400, 12, Regression, 41, false),
		ForestConfig{NTrees: 6, Seed: 43, Parallel: true}, 0x64ff060249227dde},
	{"flat", constantFixture(400, 12, Regression, 41, false),
		ForestConfig{NTrees: 6, MTry: 1, Seed: 43, Parallel: true}, 0x71d9b6ea0d1be5db},
	// Column 0 constant: its order is the ascending unit list.
	{"constant_column_0", constantFixture(400, 12, Regression, 47, true),
		ForestConfig{NTrees: 6, Seed: 53, Parallel: true}, 0x6dbce32ff5045380},
	{"evaluate_poverty_shape", povertyShapeFixture(2000, 8, 3, Regression, 59),
		ForestConfig{NTrees: 4, MaxDepth: 12, Seed: 61, Parallel: true}, 0x6e144c82e4cf5c8d},
	{"classification", constantFixture(400, 12, Classification, 67, false),
		ForestConfig{NTrees: 6, MTry: 6, Seed: 71, Parallel: true}, 0x214bee9f9a985e50},
	{"classification_column_0", constantFixture(400, 12, Classification, 73, true),
		ForestConfig{NTrees: 6, Seed: 79, Parallel: true}, 0xfa5491ac26cbebb7},
}

// TestConstantColumnFingerprints: forests over constant columns keep their
// recorded bits on every path; a classification forest also equals the
// frozen sort-per-node reference.
func TestConstantColumnFingerprints(t *testing.T) {
	for _, c := range constantShapes {
		if c.ds.Task == Classification {
			if got := forestFingerprint(refFitForest(c.ds, c.cfg)); got != c.want {
				t.Errorf("%s: reference kernel fingerprint %#x, want %#x", c.name, got, c.want)
			}
		}
		everyForestPath(c.ds, c.cfg, func(path string, f *Forest) {
			t.Helper()
			if got := forestFingerprint(f); got != c.want {
				t.Errorf("%s via %s: fingerprint %#x, want %#x", c.name, path, got, c.want)
			}
		})
	}
}

// TestConstantExtraColumn: a split view whose extra column — as a RIFS
// repetition's injected noise column would be — is constant fits the forest
// FitForest fits without the view, at the recorded bits.
func TestConstantExtraColumn(t *testing.T) {
	for _, c := range []struct {
		task Task
		want uint64
	}{{Regression, 0xd51942986e7a9d0f}, {Classification, 0xc338540017aace63}} {
		ds := constantFixture(300, 10, c.task, 83, false)
		extra := make([]float64, ds.N)
		for r := range extra {
			extra[r] = 0.75
			ds.X[r*ds.D+9] = 0.75
		}
		cfg := ForestConfig{NTrees: 5, MTry: 4, Seed: 89, Parallel: true}
		if got := forestFingerprint(FitForest(ds, cfg)); got != c.want {
			t.Errorf("task %v without a view: fingerprint %#x, want %#x", c.task, got, c.want)
		}
		col := NewSplitColumn(extra, make([]int32, ds.N))
		ds.AttachSplits(NewSplitView(ds, PresortColumns(ds, 1)[:9], []SplitColumn{col}))
		if got := forestFingerprint(FitForest(ds, cfg)); got != c.want {
			t.Errorf("task %v through the view: fingerprint %#x, want %#x", c.task, got, c.want)
		}
	}
}
