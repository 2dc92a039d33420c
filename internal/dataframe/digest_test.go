package dataframe

import (
	"math"
	"testing"
)

// digestFixture builds a table exercising all three column kinds with missing
// values and an awkward float population.
func digestFixture() *Table {
	return MustNewTable("fixture",
		NewNumeric("x", []float64{1.5, math.NaN(), -0.0, math.MaxFloat64, 3e-308}),
		NewCategorical("c", []string{"a", "", "b", "a", "c"}),
		NewTime("ts", []int64{0, MissingTime, 1700000000, -5, 42}),
	)
}

func TestTableDigestSensitivity(t *testing.T) {
	a := digestFixture()
	if a.Digest() != digestFixture().Digest() {
		t.Fatal("digest not deterministic")
	}
	b := digestFixture()
	b.Column("x").(*NumericColumn).Values[0] = 1.5000000001
	if a.Digest() == b.Digest() {
		t.Fatal("digest blind to a cell change")
	}
	c := MustNewTable("other", digestFixture().Columns()...)
	if a.Digest() == c.Digest() {
		t.Fatal("digest blind to the table name")
	}
}

func TestTableDigestColumnLayout(t *testing.T) {
	a := MustNewTable("t", NewNumeric("x", []float64{1, 2}), NewNumeric("y", []float64{3, 4}))
	swapped := MustNewTable("t", NewNumeric("y", []float64{3, 4}), NewNumeric("x", []float64{1, 2}))
	if a.Digest() == swapped.Digest() {
		t.Fatal("digest blind to column order")
	}
	renamed := MustNewTable("t", NewNumeric("x", []float64{1, 2}), NewNumeric("z", []float64{3, 4}))
	if a.Digest() == renamed.Digest() {
		t.Fatal("digest blind to a column name")
	}
	// Zero is all-zero bits as both a float64 and an int64, so only the
	// column kind tells these two tables apart.
	num := MustNewTable("t", NewNumeric("x", []float64{0, 0}))
	tm := MustNewTable("t", NewTime("x", []int64{0, 0}))
	if num.Digest() == tm.Digest() {
		t.Fatal("digest blind to the column kind")
	}
}

func TestTableDigestRawCells(t *testing.T) {
	pos := MustNewTable("t", NewNumeric("x", []float64{0}))
	neg := MustNewTable("t", NewNumeric("x", []float64{math.Copysign(0, -1)}))
	if pos.Digest() == neg.Digest() {
		t.Fatal("digest blind to the sign of zero")
	}
	// Same codes, different dictionary: the cell values differ.
	a := MustNewTable("t", NewCategoricalCodes("c", []int{0, 1, -1}, []string{"a", "b"}))
	b := MustNewTable("t", NewCategoricalCodes("c", []int{0, 1, -1}, []string{"a", "B"}))
	if a.Digest() == b.Digest() {
		t.Fatal("digest blind to the categorical dictionary")
	}
	// A missing code and a present one must not collide.
	c := MustNewTable("t", NewCategoricalCodes("c", []int{0, 1, 0}, []string{"a", "b"}))
	if a.Digest() == c.Digest() {
		t.Fatal("digest blind to a missing categorical cell")
	}
}
