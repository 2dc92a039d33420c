package join

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/arda-ml/arda/internal/dataframe"
)

// benchTables builds a base of n rows and a foreign of m rows sharing a
// categorical key space.
func benchTables(n, m, keys int, seed int64) (*dataframe.Table, *dataframe.Table) {
	rng := rand.New(rand.NewSource(seed))
	baseKeys := make([]string, n)
	for i := range baseKeys {
		baseKeys[i] = fmt.Sprintf("k%05d", rng.Intn(keys))
	}
	foreignKeys := make([]string, m)
	v1 := make([]float64, m)
	v2 := make([]float64, m)
	for i := range foreignKeys {
		foreignKeys[i] = fmt.Sprintf("k%05d", rng.Intn(keys))
		v1[i] = rng.NormFloat64()
		v2[i] = rng.NormFloat64()
	}
	base := dataframe.MustNewTable("base", dataframe.NewCategorical("k", baseKeys))
	foreign := dataframe.MustNewTable("f",
		dataframe.NewCategorical("k", foreignKeys),
		dataframe.NewNumeric("v1", v1),
		dataframe.NewNumeric("v2", v2),
	)
	return base, foreign
}

func BenchmarkHardJoin(b *testing.B) {
	base, foreign := benchTables(5000, 20000, 2000, 1)
	spec := &Spec{Keys: []KeyPair{{BaseColumn: "k", ForeignColumn: "k", Kind: Hard}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Execute(base, foreign, spec, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSoftJoinTwoWay(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	n, m := 5000, 20000
	bk := make([]float64, n)
	fk := make([]float64, m)
	fv := make([]float64, m)
	for i := range bk {
		bk[i] = rng.Float64() * 1e6
	}
	for i := range fk {
		fk[i] = rng.Float64() * 1e6
		fv[i] = rng.NormFloat64()
	}
	base := dataframe.MustNewTable("base", dataframe.NewNumeric("t", bk))
	foreign := dataframe.MustNewTable("f",
		dataframe.NewNumeric("t", fk),
		dataframe.NewNumeric("v", fv),
	)
	spec := &Spec{
		Keys:   []KeyPair{{BaseColumn: "t", ForeignColumn: "t", Kind: Soft}},
		Method: TwoWayNearest,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Execute(base, foreign, spec, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTimeResample(b *testing.B) {
	// 90 days of minute-level data resampled to days.
	n := 90 * 24 * 60
	unix := make([]int64, n)
	vals := make([]float64, n)
	for i := range unix {
		unix[i] = int64(i) * 60
		vals[i] = float64(i % 1440)
	}
	tab := dataframe.MustNewTable("w",
		dataframe.NewTime("ts", unix),
		dataframe.NewNumeric("v", vals),
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ResampleTime(tab, "ts", 86400, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkImpute(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	n := 20000
	vals := make([]float64, n)
	for i := range vals {
		if rng.Intn(10) == 0 {
			vals[i] = nan()
		} else {
			vals[i] = rng.NormFloat64()
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		work := make([]float64, n)
		copy(work, vals)
		tab := dataframe.MustNewTable("t", dataframe.NewNumeric("v", work))
		b.StartTimer()
		Impute(tab, rng)
	}
}

// nan avoids importing math just for the benchmark.
func nan() float64 {
	var z float64
	return z / z
}
