package dataframe

import "testing"

// BenchmarkDataplaneEncode compares the cached typed-fill encode path against
// cold encoding (which recomputes every binarize plan); both run in
// production, the end-to-end figure is `go run ./bench`'s
// dataframe.encode_cache_hit_ratio.
func BenchmarkDataplaneEncode(b *testing.B) {
	tbl := encodeFixture(5000)
	b.Run("cached", func(b *testing.B) {
		cache := NewEncodeCache()
		tbl.ToNumericViewCached(cache, "target")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tbl.ToNumericViewCached(cache, "target")
		}
	})
	b.Run("uncached", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tbl.ToNumericView("target")
		}
	})
}
