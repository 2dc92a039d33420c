// Package coreset implements ARDA's row-reduction strategies (§3.1 of the
// paper): uniform sampling and ridge leverage-score sampling. Both draw row
// indices, so the coreset is taken before any join.
package coreset

import (
	"fmt"
	"math/rand"
)

// Strategy identifies a coreset construction.
type Strategy int

const (
	// Uniform draws rows uniformly without replacement.
	Uniform Strategy = iota
	// Leverage draws rows proportionally to their ridge leverage scores,
	// preferentially keeping influential/outlying rows (a specialized
	// construction in the sense of §3.1's coreset survey).
	Leverage
)

// String returns the lowercase strategy name.
func (s Strategy) String() string {
	switch s {
	case Uniform:
		return "uniform"
	case Leverage:
		return "leverage"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// ParseStrategy returns the strategy whose String is name.
func ParseStrategy(name string) (Strategy, error) {
	for _, s := range []Strategy{Uniform, Leverage} {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("coreset: unknown strategy %q (valid: uniform, leverage)", name)
}

// DefaultSize is the paper-style heuristic for an automatic coreset size:
// min(n, max(256, n/10)) rows.
func DefaultSize(n int) int {
	size := n / 10
	if size < 256 {
		size = 256
	}
	if size > n {
		size = n
	}
	return size
}

// UniformIndices draws size distinct row indices uniformly at random,
// returned in random order. If size >= n, all indices are returned.
func UniformIndices(n, size int, rng *rand.Rand) []int {
	if size >= n {
		return allIndices(n)
	}
	return rng.Perm(n)[:size]
}

// allIndices returns 0..n-1.
func allIndices(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}
