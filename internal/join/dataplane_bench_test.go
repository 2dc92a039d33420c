package join

import (
	"math/rand"
	"testing"

	"github.com/arda-ml/arda/internal/dataframe"
)

// Dataplane benchmarks time the allocation-light join data plane; the
// end-to-end figures are `go run ./bench`'s join.ms / join.prep_cache_hit_ratio.

func BenchmarkDataplaneCompositeKey(b *testing.B) {
	const n = 5000
	base, foreign := largeKeyTables(n)
	baseCols := []dataframe.Column{base.Column("k"), base.Column("c")}
	foreignCols := []dataframe.Column{foreign.Column("k"), foreign.Column("c")}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, ok := hashHardMatch(baseCols, foreignCols, n, n); !ok {
			b.Fatal("unexpected fallback")
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

func BenchmarkDataplanePrep(b *testing.B) {
	base, foreign := benchTables(2000, 20000, 2000, 1)
	spec := &Spec{Keys: []KeyPair{{BaseColumn: "k", ForeignColumn: "k", Kind: Hard}}}
	b.Run("cached", func(b *testing.B) {
		cache := NewPrepCache()
		if _, err := ExecuteCached(base, foreign, spec, rand.New(rand.NewSource(1)), cache); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ExecuteCached(base, foreign, spec, rand.New(rand.NewSource(1)), cache); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("uncached", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Execute(base, foreign, spec, rand.New(rand.NewSource(1))); err != nil {
				b.Fatal(err)
			}
		}
	})
}
