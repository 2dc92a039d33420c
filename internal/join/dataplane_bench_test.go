package join

import (
	"math/rand"
	"testing"

	"github.com/arda-ml/arda/internal/dataframe"
)

// Dataplane benchmarks time the allocation-light join data plane; the
// end-to-end figure is `go run ./bench`'s join.ms.

func BenchmarkDataplaneCompositeKey(b *testing.B) {
	const n = 5000
	base, foreign := largeKeyTables(n)
	baseCols := []dataframe.Column{base.Column("k"), base.Column("c")}
	foreignCols := []dataframe.Column{foreign.Column("k"), foreign.Column("c")}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, matched := matchHardKeys(baseCols, foreignCols, n, n); matched == 0 {
			b.Fatal("no base row matched")
		}
	}
}

func BenchmarkDataplaneHardJoin(b *testing.B) {
	base, foreign := benchTables(5000, 20000, 2000, 1)
	spec := &Spec{Keys: []KeyPair{{BaseColumn: "k", ForeignColumn: "k", Kind: Hard}}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Execute(base, foreign, spec, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDataplaneAggregate(b *testing.B) {
	_, foreign := largeKeyTables(20000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := AggregateByKey(foreign, []string{"k", "c"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDataplaneResample is a time-resample join: the foreign table is
// resampled to the base's granularity on every call (a hard-key join
// prepares nothing).
func BenchmarkDataplaneResample(b *testing.B) {
	base, foreign := resampleTables(2000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Execute(base, foreign, resampleSpec, rand.New(rand.NewSource(1))); err != nil {
			b.Fatal(err)
		}
	}
}

// resampleTables builds a daily base and an hourly foreign table over the
// same days, the shape a time-resample join prepares.
func resampleTables(days int) (*dataframe.Table, *dataframe.Table) {
	bt := make([]int64, days)
	for i := range bt {
		bt[i] = int64(i) * 86400
	}
	ft := make([]int64, 24*days)
	fv := make([]float64, len(ft))
	for i := range ft {
		ft[i] = int64(i) * 3600
		fv[i] = float64(i%24) + 0.25*float64(i/24)
	}
	base := dataframe.MustNewTable("b", dataframe.NewTime("ts", bt))
	foreign := dataframe.MustNewTable("f", dataframe.NewTime("ts", ft), dataframe.NewNumeric("v", fv))
	return base, foreign
}

// resampleSpec joins resampleTables' pair on the time key, resampled.
var resampleSpec = &Spec{
	Keys:         []KeyPair{{BaseColumn: "ts", ForeignColumn: "ts", Kind: Soft}},
	Method:       HardExact,
	TimeResample: true,
}
