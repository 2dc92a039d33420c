package coreset

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func TestUniformIndices(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	idx := UniformIndices(100, 30, rng)
	if len(idx) != 30 {
		t.Fatalf("len = %d", len(idx))
	}
	seen := map[int]bool{}
	for _, i := range idx {
		if i < 0 || i >= 100 || seen[i] {
			t.Fatalf("bad index %d", i)
		}
		seen[i] = true
	}
	all := UniformIndices(10, 50, rng)
	if len(all) != 10 {
		t.Fatalf("oversized request should return all rows, got %d", len(all))
	}
}

func TestDefaultSize(t *testing.T) {
	if got := DefaultSize(100); got != 100 {
		t.Fatalf("DefaultSize(100) = %d", got)
	}
	if got := DefaultSize(10000); got != 1000 {
		t.Fatalf("DefaultSize(10000) = %d", got)
	}
	if got := DefaultSize(1000); got != 256 {
		t.Fatalf("DefaultSize(1000) = %d", got)
	}
}

func TestStrategyString(t *testing.T) {
	if Uniform.String() != "uniform" || Leverage.String() != "leverage" {
		t.Fatal("strategy names wrong")
	}
	if Strategy(9).String() == "" {
		t.Fatal("unknown strategy should still format")
	}
	for _, s := range []Strategy{Uniform, Leverage} {
		if got, err := ParseStrategy(s.String()); got != s || err != nil {
			t.Fatalf("ParseStrategy(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseStrategy("sketch"); err == nil {
		t.Fatal("a removed strategy name should be refused")
	}
}

func TestUniformIndicesSeeded(t *testing.T) {
	a := UniformIndices(500, 40, rand.New(rand.NewSource(11)))
	b := UniformIndices(500, 40, rand.New(rand.NewSource(11)))
	c := UniformIndices(500, 40, rand.New(rand.NewSource(12)))
	same := func(x, y []int) bool {
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return len(x) == len(y)
	}
	if !same(a, b) {
		t.Fatal("the same seed drew different rows")
	}
	if same(a, c) {
		t.Fatal("different seeds drew the same rows")
	}
}

func TestUniformIndicesInclusionIsUniform(t *testing.T) {
	// Every row is kept with probability size/n = 0.2; over 2,000 draws each
	// row's count is Binomial(2000, 0.2): mean 400, sd ≈ 17.9.
	const n, size, draws = 50, 10, 2000
	rng := rand.New(rand.NewSource(13))
	counts := make([]int, n)
	for d := 0; d < draws; d++ {
		for _, i := range UniformIndices(n, size, rng) {
			counts[i]++
		}
	}
	for i, c := range counts {
		if c < 320 || c > 480 {
			t.Fatalf("row %d kept %d times in %d draws, want ~400", i, c, draws)
		}
	}
}

func TestParseStrategyNames(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Strategy
		ok   bool
	}{
		{"uniform", Uniform, true},
		{"leverage", Leverage, true},
		{"stratified", 0, false},
		{"sketch", 0, false},
		{"Uniform", 0, false},
		{"", 0, false},
	} {
		label := tc.name
		if label == "" {
			label = "empty"
		}
		t.Run(label, func(t *testing.T) {
			got, err := ParseStrategy(tc.name)
			if tc.ok {
				if err != nil || got != tc.want {
					t.Fatalf("ParseStrategy(%q) = %v, %v; want %v", tc.name, got, err, tc.want)
				}
				return
			}
			if err == nil {
				t.Fatalf("ParseStrategy(%q) = %v, want an error", tc.name, got)
			}
			msg := err.Error()
			if !strings.Contains(msg, fmt.Sprintf("%q", tc.name)) || !strings.Contains(msg, "uniform, leverage") {
				t.Fatalf("error %q should name %q and list the valid strategies", msg, tc.name)
			}
		})
	}
}
