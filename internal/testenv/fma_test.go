package testenv

import (
	"slices"
	"testing"
)

// TestFusedInReadsListing: the gate reports each fused multiply-add of an
// arm64 -S listing that sits in the package's own files, by file and line,
// and nothing else — not a plain multiply or add, and not a fused op the
// compiler attributes to another directory (code inlined from elsewhere).
func TestFusedInReadsListing(t *testing.T) {
	const dir = "/src/arda/internal/linalg"
	for _, c := range []struct {
		name, line string
		want       []string
	}{
		{"fmadd double", "\t0x0128 00296 (/src/arda/internal/linalg/matrix.go:83)\tFMADDD\tF0, F2, F1, F1\n", []string{"matrix.go:83: FMADDD"}},
		{"fmsub double", "\t0x0010 00016 (/src/arda/internal/linalg/matrix.go:125)\tFMSUBD\tF0, F2, F1, F1\n", []string{"matrix.go:125: FMSUBD"}},
		{"fnmadd single", "\t0x0010 00016 (/src/arda/internal/linalg/vec.go:7)\tFNMADDS\tF0, F2, F1, F1\n", []string{"vec.go:7: FNMADDS"}},
		{"fnmsub double", "\t0x0010 00016 (/src/arda/internal/linalg/vec.go:9)\tFNMSUBD\tF0, F2, F1, F1\n", []string{"vec.go:9: FNMSUBD"}},
		{"plain multiply", "\t0x0010 00016 (/src/arda/internal/linalg/matrix.go:83)\tFMULD\tF0, F1, F1\n", nil},
		{"plain add", "\t0x0010 00016 (/src/arda/internal/linalg/matrix.go:83)\tFADDD\tF0, F1, F1\n", nil},
		{"inlined from another package", "\t0x0010 00016 (/src/arda/internal/stats/stats.go:36)\tFMADDD\tF0, F2, F1, F1\n", nil},
		{"subdirectory", "\t0x0010 00016 (/src/arda/internal/linalg/sub/x.go:3)\tFMADDD\tF0, F2, F1, F1\n", nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			if got := fusedIn(c.line, dir); !slices.Equal(got, c.want) {
				t.Fatalf("fusedIn = %q, want %q", got, c.want)
			}
		})
	}
}
