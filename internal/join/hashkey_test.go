package join

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/arda-ml/arda/internal/dataframe"
	"github.com/arda-ml/arda/internal/testenv"
)

// withHashMask runs fn with the given collision-forcing hash mask. Mask 0
// makes every pair of distinct keys collide, which is how these tests reach
// the string-key plane: the same verified-collision fallback production takes.
func withHashMask(mask uint64, fn func()) {
	prev := hashKeyMask
	hashKeyMask = mask
	defer func() { hashKeyMask = prev }()
	fn()
}

// requireTablesIdentical asserts a and b are bit-identical: same shape, same
// column names and kinds, and per-cell equality at the representation level
// (Float64bits for numerics, codes+dict strings for categoricals, Unix for
// times).
func requireTablesIdentical(t *testing.T, a, b *dataframe.Table) {
	t.Helper()
	if a.NumRows() != b.NumRows() || a.NumCols() != b.NumCols() {
		t.Fatalf("shape mismatch: %dx%d vs %dx%d", a.NumRows(), a.NumCols(), b.NumRows(), b.NumCols())
	}
	bc := b.Columns()
	for ci, ca := range a.Columns() {
		cb := bc[ci]
		if ca.Name() != cb.Name() {
			t.Fatalf("column %d name: %q vs %q", ci, ca.Name(), cb.Name())
		}
		if ca.Kind() != cb.Kind() {
			t.Fatalf("column %q kind: %v vs %v", ca.Name(), ca.Kind(), cb.Kind())
		}
		switch colA := ca.(type) {
		case *dataframe.NumericColumn:
			colB := cb.(*dataframe.NumericColumn)
			for i := range colA.Values {
				if math.Float64bits(colA.Values[i]) != math.Float64bits(colB.Values[i]) {
					t.Fatalf("column %q row %d: %v (%#x) vs %v (%#x)", ca.Name(), i,
						colA.Values[i], math.Float64bits(colA.Values[i]),
						colB.Values[i], math.Float64bits(colB.Values[i]))
				}
			}
		case *dataframe.CategoricalColumn:
			colB := cb.(*dataframe.CategoricalColumn)
			for i := range colA.Codes {
				if colA.IsMissing(i) != colB.IsMissing(i) {
					t.Fatalf("column %q row %d: missing mismatch", ca.Name(), i)
				}
				if !colA.IsMissing(i) && colA.Dict[colA.Codes[i]] != colB.Dict[colB.Codes[i]] {
					t.Fatalf("column %q row %d: %q vs %q", ca.Name(), i,
						colA.Dict[colA.Codes[i]], colB.Dict[colB.Codes[i]])
				}
			}
		case *dataframe.TimeColumn:
			colB := cb.(*dataframe.TimeColumn)
			for i := range colA.Unix {
				if colA.Unix[i] != colB.Unix[i] {
					t.Fatalf("column %q row %d: %d vs %d", ca.Name(), i, colA.Unix[i], colB.Unix[i])
				}
			}
		}
	}
}

// requireMaskEquivalent executes the join with the production (all-ones) hash
// mask and again under mask, with identically seeded RNGs, and asserts
// bit-identical results.
func requireMaskEquivalent(t *testing.T, mask uint64, base, foreign *dataframe.Table, spec *Spec) {
	t.Helper()
	hashed, errH := Execute(base, foreign, spec, rand.New(rand.NewSource(7)))
	var masked *Result
	var errM error
	withHashMask(mask, func() {
		masked, errM = Execute(base, foreign, spec, rand.New(rand.NewSource(7)))
	})
	if (errH == nil) != (errM == nil) {
		t.Fatalf("error mismatch: hashed=%v mask %#x=%v", errH, mask, errM)
	}
	if errH != nil {
		return
	}
	if hashed.Matched != masked.Matched {
		t.Fatalf("matched: hashed=%d mask %#x=%d", hashed.Matched, mask, masked.Matched)
	}
	requireTablesIdentical(t, hashed.Table, masked.Table)
}

// runBothPlanes asserts the hashed-key plane and the string-key plane (mask
// 0) produce bit-identical joins.
func runBothPlanes(t *testing.T, base, foreign *dataframe.Table, spec *Spec) {
	t.Helper()
	requireMaskEquivalent(t, 0, base, foreign, spec)
}

// equivalenceCases builds the (base, foreign, spec) fixtures shared by the
// plain equivalence test and the forced-collision fallback test.
func equivalenceCases() map[string]func() (*dataframe.Table, *dataframe.Table, *Spec) {
	return map[string]func() (*dataframe.Table, *dataframe.Table, *Spec){
		"hard categorical": func() (*dataframe.Table, *dataframe.Table, *Spec) {
			base := dataframe.MustNewTable("b",
				dataframe.NewCategorical("city", []string{"nyc", "bos", "sfo", "nyc", ""}),
				dataframe.NewNumeric("x", []float64{1, 2, 3, 4, 5}))
			foreign := dataframe.MustNewTable("f",
				dataframe.NewCategorical("city", []string{"nyc", "bos", "lax"}),
				dataframe.NewNumeric("pop", []float64{8, 0.7, 4}))
			return base, foreign, &Spec{Keys: []KeyPair{{BaseColumn: "city", ForeignColumn: "city", Kind: Hard}}}
		},
		"hard numeric signed zero": func() (*dataframe.Table, *dataframe.Table, *Spec) {
			nz := math.Copysign(0, -1)
			base := dataframe.MustNewTable("b",
				dataframe.NewNumeric("k", []float64{0, nz, 1.5, math.NaN(), -1.5}),
				dataframe.NewNumeric("x", []float64{1, 2, 3, 4, 5}))
			foreign := dataframe.MustNewTable("f",
				dataframe.NewNumeric("k", []float64{nz, 1.5, 2.5}),
				dataframe.NewNumeric("v", []float64{10, 20, 30}))
			return base, foreign, &Spec{Keys: []KeyPair{{BaseColumn: "k", ForeignColumn: "k", Kind: Hard}}}
		},
		"hard time": func() (*dataframe.Table, *dataframe.Table, *Spec) {
			base := dataframe.MustNewTable("b",
				dataframe.NewTime("ts", []int64{86400, 172800, dataframe.MissingTime, -86400}),
				dataframe.NewNumeric("x", []float64{1, 2, 3, 4}))
			foreign := dataframe.MustNewTable("f",
				dataframe.NewTime("ts", []int64{86400, -86400, 259200}),
				dataframe.NewNumeric("v", []float64{10, 20, 30}))
			return base, foreign, &Spec{
				Keys:         []KeyPair{{BaseColumn: "ts", ForeignColumn: "ts", Kind: Hard}},
				TimeResample: false,
			}
		},
		"composite with duplicates": func() (*dataframe.Table, *dataframe.Table, *Spec) {
			base := dataframe.MustNewTable("b",
				dataframe.NewCategorical("a", []string{"x", "x", "y", "y"}),
				dataframe.NewNumeric("n", []float64{1, 2, 1, 2}),
				dataframe.NewNumeric("x", []float64{1, 2, 3, 4}))
			foreign := dataframe.MustNewTable("f",
				dataframe.NewCategorical("a", []string{"x", "x", "y", "z"}),
				dataframe.NewNumeric("n", []float64{2, 2, 1, 1}),
				dataframe.NewNumeric("v", []float64{10, 30, 20, 40}))
			return base, foreign, &Spec{Keys: []KeyPair{
				{BaseColumn: "a", ForeignColumn: "a", Kind: Hard},
				{BaseColumn: "n", ForeignColumn: "n", Kind: Hard},
			}}
		},
		"foreign dict remap": func() (*dataframe.Table, *dataframe.Table, *Spec) {
			// Same category strings, different code assignment orders.
			base := dataframe.MustNewTable("b",
				dataframe.NewCategorical("c", []string{"alpha", "beta", "gamma"}),
				dataframe.NewNumeric("x", []float64{1, 2, 3}))
			foreign := dataframe.MustNewTable("f",
				dataframe.NewCategorical("c", []string{"gamma", "delta", "alpha"}),
				dataframe.NewNumeric("v", []float64{10, 20, 30}))
			return base, foreign, &Spec{Keys: []KeyPair{{BaseColumn: "c", ForeignColumn: "c", Kind: Hard}}}
		},
		"mixed kinds fall back": func() (*dataframe.Table, *dataframe.Table, *Spec) {
			// Numeric base key vs time foreign key: the hasher refuses the
			// pair and both planes must agree via the string path.
			base := dataframe.MustNewTable("b",
				dataframe.NewNumeric("k", []float64{86400, 172800}),
				dataframe.NewNumeric("x", []float64{1, 2}))
			foreign := dataframe.MustNewTable("f",
				dataframe.NewTime("k", []int64{86400, 259200}),
				dataframe.NewNumeric("v", []float64{10, 20}))
			return base, foreign, &Spec{Keys: []KeyPair{{BaseColumn: "k", ForeignColumn: "k", Kind: Hard}}}
		},
		"soft two-way nearest": func() (*dataframe.Table, *dataframe.Table, *Spec) {
			base := dataframe.MustNewTable("b",
				dataframe.NewCategorical("g", []string{"a", "a", "b", "b"}),
				dataframe.NewNumeric("t", []float64{1, 5, 2, 9}),
				dataframe.NewNumeric("x", []float64{1, 2, 3, 4}))
			foreign := dataframe.MustNewTable("f",
				dataframe.NewCategorical("g", []string{"a", "a", "b", "b", "b"}),
				dataframe.NewNumeric("t", []float64{0, 10, 1, 3, 8}),
				dataframe.NewNumeric("v", []float64{10, 20, 30, 40, 50}))
			return base, foreign, &Spec{
				Keys: []KeyPair{
					{BaseColumn: "g", ForeignColumn: "g", Kind: Hard},
					{BaseColumn: "t", ForeignColumn: "t", Kind: Soft},
				},
				Method: TwoWayNearest,
			}
		},
		"soft nearest with tolerance": func() (*dataframe.Table, *dataframe.Table, *Spec) {
			base := dataframe.MustNewTable("b",
				dataframe.NewCategorical("g", []string{"a", "b", "a"}),
				dataframe.NewNumeric("t", []float64{1, 2, 100}),
				dataframe.NewNumeric("x", []float64{1, 2, 3}))
			foreign := dataframe.MustNewTable("f",
				dataframe.NewCategorical("g", []string{"a", "b"}),
				dataframe.NewNumeric("t", []float64{1.5, 2.5}),
				dataframe.NewNumeric("v", []float64{10, 20}))
			return base, foreign, &Spec{
				Keys: []KeyPair{
					{BaseColumn: "g", ForeignColumn: "g", Kind: Hard},
					{BaseColumn: "t", ForeignColumn: "t", Kind: Soft},
				},
				Method:    NearestNeighbor,
				Tolerance: 2,
			}
		},
		"time resample": func() (*dataframe.Table, *dataframe.Table, *Spec) {
			base := dataframe.MustNewTable("b",
				dataframe.NewTime("ts", []int64{86400, 172800, 259200}),
				dataframe.NewNumeric("x", []float64{1, 2, 3}))
			foreign := dataframe.MustNewTable("f",
				dataframe.NewTime("ts", []int64{86400, 86400 + 3600, 172800 + 7200, 300000}),
				dataframe.NewNumeric("v", []float64{10, 20, 30, 40}))
			return base, foreign, &Spec{
				Keys:         []KeyPair{{BaseColumn: "ts", ForeignColumn: "ts", Kind: Soft}},
				Method:       HardExact,
				TimeResample: true,
			}
		},
		"geo grouped": func() (*dataframe.Table, *dataframe.Table, *Spec) {
			base := dataframe.MustNewTable("b",
				dataframe.NewCategorical("g", []string{"a", "a", "b"}),
				dataframe.NewNumeric("lon", []float64{0, 5, 0}),
				dataframe.NewNumeric("lat", []float64{0, 5, 0}),
				dataframe.NewNumeric("x", []float64{1, 2, 3}))
			foreign := dataframe.MustNewTable("f",
				dataframe.NewCategorical("g", []string{"a", "a", "b"}),
				dataframe.NewNumeric("lon", []float64{1, 6, 2}),
				dataframe.NewNumeric("lat", []float64{0, 5, 1}),
				dataframe.NewNumeric("v", []float64{10, 20, 30}))
			return base, foreign, &Spec{
				Keys: []KeyPair{
					{BaseColumn: "g", ForeignColumn: "g", Kind: Hard},
					{BaseColumn: "lon", ForeignColumn: "lon", Kind: Soft},
					{BaseColumn: "lat", ForeignColumn: "lat", Kind: Soft},
				},
				Method: GeoNearest,
			}
		},
	}
}

// TestHashPlaneEquivalence proves every join flavor is bit-identical between
// the hashed-key and string-key planes.
func TestHashPlaneEquivalence(t *testing.T) {
	for name, mk := range equivalenceCases() {
		t.Run(name, func(t *testing.T) {
			base, foreign, spec := mk()
			runBothPlanes(t, base, foreign, spec)
		})
	}
}

// TestHashPlaneEquivalenceFuzz joins randomly generated tables on both planes
// and requires bit-identical output, covering duplicate keys, missing values,
// and adversarial float values (±0, tiny/huge magnitudes).
func TestHashPlaneEquivalenceFuzz(t *testing.T) {
	values := []float64{0, math.Copysign(0, -1), 1, -1, 1e-300, -1e300, 2.5, math.NaN(), 42}
	cats := []string{"", "a", "b", "c", "aa"}
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		nBase, nForeign := 30, 40
		num := func(n int) []float64 {
			out := make([]float64, n)
			for i := range out {
				out[i] = values[rng.Intn(len(values))]
			}
			return out
		}
		cat := func(n int) []string {
			out := make([]string, n)
			for i := range out {
				out[i] = cats[rng.Intn(len(cats))]
			}
			return out
		}
		base := dataframe.MustNewTable("b",
			dataframe.NewNumeric("k", num(nBase)),
			dataframe.NewCategorical("c", cat(nBase)),
			dataframe.NewNumeric("x", num(nBase)))
		foreign := dataframe.MustNewTable("f",
			dataframe.NewNumeric("k", num(nForeign)),
			dataframe.NewCategorical("c", cat(nForeign)),
			dataframe.NewNumeric("v", num(nForeign)))
		spec := &Spec{Keys: []KeyPair{
			{BaseColumn: "k", ForeignColumn: "k", Kind: Hard},
			{BaseColumn: "c", ForeignColumn: "c", Kind: Hard},
		}}
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			runBothPlanes(t, base, foreign, spec)
		})
	}
}

// TestHashPlaneForcedCollisions shrinks the hash mask so distinct keys
// collide always (0), mostly (2 bits) or occasionally (4 bits), proving the
// verification/fallback machinery yields results bit-identical to the
// collision-free hashed plane for every join flavor.
func TestHashPlaneForcedCollisions(t *testing.T) {
	for _, mask := range []uint64{0, 0x3, 0xf} {
		mask := mask
		t.Run(fmt.Sprintf("mask%#x", mask), func(t *testing.T) {
			for name, mk := range equivalenceCases() {
				t.Run(name, func(t *testing.T) {
					base, foreign, spec := mk()
					requireMaskEquivalent(t, mask, base, foreign, spec)
				})
			}
		})
	}
}

// TestMaskZeroReachesStringPlane pins what the equivalence tests rely on:
// under mask 0 any two distinct keys are a verified collision, so the hashed
// attempt declines and the caller runs the string-key path.
func TestMaskZeroReachesStringPlane(t *testing.T) {
	base, foreign := largeKeyTables(50)
	baseCols := []dataframe.Column{base.Column("k"), base.Column("c")}
	foreignCols := []dataframe.Column{foreign.Column("k"), foreign.Column("c")}
	withHashMask(0, func() {
		if _, _, ok := hashHardMatch(baseCols, foreignCols, 50, 50); ok {
			t.Fatal("hashHardMatch accepted colliding keys under mask 0")
		}
		if _, ok := hashGroups(newGroupHasher(foreignCols), 50); ok {
			t.Fatal("hashGroups accepted colliding keys under mask 0")
		}
	})
}

// TestAggregateByKeyEquivalence checks grouped aggregation is identical on
// the hashed plane, the string plane (mask 0), and under partial collisions.
func TestAggregateByKeyEquivalence(t *testing.T) {
	tbl := dataframe.MustNewTable("f",
		dataframe.NewCategorical("g", []string{"a", "b", "a", "", "b", "a"}),
		dataframe.NewNumeric("k", []float64{1, 1, 1, 2, math.Copysign(0, -1), 1}),
		dataframe.NewNumeric("v", []float64{10, 20, 30, 40, 50, 60}),
		dataframe.NewTime("ts", []int64{10, 20, 30, 40, dataframe.MissingTime, 60}),
		dataframe.NewCategorical("m", []string{"x", "y", "x", "y", "x", "y"}))
	check := func(mask uint64) func(*testing.T) {
		return func(t *testing.T) {
			hashed, errH := AggregateByKey(tbl, []string{"g", "k"})
			var masked *dataframe.Table
			var errM error
			withHashMask(mask, func() { masked, errM = AggregateByKey(tbl, []string{"g", "k"}) })
			if errH != nil || errM != nil {
				t.Fatalf("errors: %v / %v", errH, errM)
			}
			requireTablesIdentical(t, hashed, masked)
		}
	}
	t.Run("full mask", check(0)) // hashed plane at full mask vs the string plane
	t.Run("forced collisions", check(1))
	t.Run("mask 0xf", check(0xf))
}

// largeKeyTables builds a pair of tables with enough rows that per-row
// allocation differences dominate fixed costs.
func largeKeyTables(n int) (*dataframe.Table, *dataframe.Table) {
	bk := make([]float64, n)
	bc := make([]string, n)
	bx := make([]float64, n)
	for i := range bk {
		bk[i] = float64(i % 97)
		bc[i] = fmt.Sprintf("cat%d", i%13)
		bx[i] = float64(i)
	}
	fk := make([]float64, n)
	fc := make([]string, n)
	fv := make([]float64, n)
	for i := range fk {
		fk[i] = float64(i % 89)
		fc[i] = fmt.Sprintf("cat%d", i%11)
		fv[i] = float64(2 * i)
	}
	base := dataframe.MustNewTable("b",
		dataframe.NewNumeric("k", bk),
		dataframe.NewCategorical("c", bc),
		dataframe.NewNumeric("x", bx))
	foreign := dataframe.MustNewTable("f",
		dataframe.NewNumeric("k", fk),
		dataframe.NewCategorical("c", fc),
		dataframe.NewNumeric("v", fv))
	return base, foreign
}

// TestHashHardMatchAllocs is the allocation-regression gate for the
// composite-key hot loop: the hashed plane must allocate far less than the
// per-row string building it replaces.
func TestHashHardMatchAllocs(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("AllocsPerRun is unreliable under -race")
	}
	const n = 2000
	base, foreign := largeKeyTables(n)
	baseCols := []dataframe.Column{base.Column("k"), base.Column("c")}
	foreignCols := []dataframe.Column{foreign.Column("k"), foreign.Column("c")}

	hashAllocs := testing.AllocsPerRun(10, func() {
		if _, _, ok := hashHardMatch(baseCols, foreignCols, n, n); !ok {
			t.Fatal("hashHardMatch fell back unexpectedly")
		}
	})
	stringAllocs := testing.AllocsPerRun(10, func() {
		stringHardMatch(baseCols, foreignCols, n, n)
	})
	// The string plane allocates at least one composite key per row on both
	// sides; the hashed plane should cut total allocations by well over 2x.
	if hashAllocs*2 > stringAllocs {
		t.Fatalf("hashed plane allocates too much: %.0f allocs vs %.0f string-plane allocs",
			hashAllocs, stringAllocs)
	}
	if stringAllocs < n {
		t.Fatalf("string plane unexpectedly cheap (%.0f allocs) — baseline invalid", stringAllocs)
	}
}

// TestPrepCacheReuse verifies ExecuteCached prepares a foreign table once per
// (table, keys, granularity) and that cached reuse is bit-identical to a
// fresh execution.
func TestPrepCacheReuse(t *testing.T) {
	base, foreign := largeKeyTables(200)
	spec := &Spec{Keys: []KeyPair{
		{BaseColumn: "k", ForeignColumn: "k", Kind: Hard},
		{BaseColumn: "c", ForeignColumn: "c", Kind: Hard},
	}}
	cache := NewPrepCache()
	first, err := ExecuteCached(base, foreign, spec, rand.New(rand.NewSource(1)), cache)
	if err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 1 {
		t.Fatalf("cache has %d entries, want 1", cache.Len())
	}
	second, err := ExecuteCached(base, foreign, spec, rand.New(rand.NewSource(1)), cache)
	if err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 1 {
		t.Fatalf("cache grew to %d entries on reuse", cache.Len())
	}
	fresh, err := Execute(base, foreign, spec, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	requireTablesIdentical(t, first.Table, second.Table)
	requireTablesIdentical(t, first.Table, fresh.Table)
}
