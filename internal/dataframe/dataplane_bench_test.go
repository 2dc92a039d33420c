package dataframe

import "testing"

// BenchmarkDataplaneEncode times the typed-fill encode of a 5,000-row table
// with a numeric, a time and two categorical columns (one past the one-hot
// cap).
func BenchmarkDataplaneEncode(b *testing.B) {
	tbl := encodeFixture(5000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbl.ToNumericView("target")
	}
}
