package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMeanVarianceMedian(t *testing.T) {
	xs := []float64{1, 2, math.NaN(), 3}
	if got := Mean(xs); got != 2 {
		t.Fatalf("Mean = %v", got)
	}
	if got := Variance(xs); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Fatalf("Variance = %v", got)
	}
	if got := Median(xs); got != 2 {
		t.Fatalf("Median = %v", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("even Median = %v", got)
	}
	if !math.IsNaN(Median([]float64{math.NaN()})) {
		t.Fatal("all-NaN median should be NaN")
	}
	if got := Mean(nil); got != 0 {
		t.Fatalf("empty Mean = %v", got)
	}
}

func TestPearson(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	if got := Pearson(x, y); math.Abs(got-1) > 1e-12 {
		t.Fatalf("perfect corr = %v", got)
	}
	neg := []float64{5, 4, 3, 2, 1}
	if got := Pearson(x, neg); math.Abs(got+1) > 1e-12 {
		t.Fatalf("perfect anticorr = %v", got)
	}
	if got := Pearson(x, []float64{7, 7, 7, 7, 7}); got != 0 {
		t.Fatalf("constant series corr = %v", got)
	}
	// NaN pairs are skipped.
	withNaN := []float64{2, math.NaN(), 6, 8, 10}
	if got := Pearson(x, withNaN); math.Abs(got-1) > 1e-12 {
		t.Fatalf("NaN-skipping corr = %v", got)
	}
}

func TestFClassifSeparates(t *testing.T) {
	// Class 0 around 0, class 1 around 10: huge F. Random noise: small F.
	rng := rand.New(rand.NewSource(1))
	n := 200
	x := make([]float64, n)
	noise := make([]float64, n)
	y := make([]int, n)
	for i := range x {
		y[i] = i % 2
		x[i] = float64(y[i])*10 + rng.NormFloat64()
		noise[i] = rng.NormFloat64()
	}
	fGood := FClassif(x, y, 2)
	fBad := FClassif(noise, y, 2)
	if fGood < 100*fBad {
		t.Fatalf("F signal=%v noise=%v", fGood, fBad)
	}
}

func TestFRegression(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 200
	x := make([]float64, n)
	y := make([]float64, n)
	noise := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = 3*x[i] + 0.1*rng.NormFloat64()
		noise[i] = rng.NormFloat64()
	}
	if FRegression(x, y) < 100*FRegression(noise, y) {
		t.Fatal("F-regression fails to separate signal from noise")
	}
}

func TestEqualFrequencyBins(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	bins, k := EqualFrequencyBins(x, 4)
	if k != 4 {
		t.Fatalf("bins used = %d, want 4", k)
	}
	// Monotone assignment.
	for i := 1; i < len(x); i++ {
		if bins[i] < bins[i-1] {
			t.Fatalf("bins not monotone: %v", bins)
		}
	}
	// Ties share a bin.
	tied, _ := EqualFrequencyBins([]float64{1, 1, 1, 1, 2, 2}, 3)
	for i := 1; i < 4; i++ {
		if tied[i] != tied[0] {
			t.Fatalf("tied values split bins: %v", tied)
		}
	}
	// NaNs get -1.
	withNaN, _ := EqualFrequencyBins([]float64{math.NaN(), 1}, 2)
	if withNaN[0] != -1 {
		t.Fatalf("NaN bin = %d", withNaN[0])
	}
	empty, k := EqualFrequencyBins([]float64{math.NaN()}, 2)
	if k != 0 || empty[0] != -1 {
		t.Fatal("all-NaN input should produce no bins")
	}
}

func TestMutualInformation(t *testing.T) {
	// Perfectly informative feature vs independent feature.
	y := []int{0, 1, 0, 1, 0, 1, 0, 1}
	same := []int{0, 1, 0, 1, 0, 1, 0, 1}
	indep := []int{0, 0, 1, 1, 0, 0, 1, 1}
	miSame := MutualInformation(same, 2, y, 2)
	miIndep := MutualInformation(indep, 2, y, 2)
	if math.Abs(miSame-math.Log(2)) > 1e-9 {
		t.Fatalf("MI(identical) = %v, want ln2", miSame)
	}
	if miIndep > 1e-9 {
		t.Fatalf("MI(independent) = %v, want 0", miIndep)
	}
}

func TestSampleColumnDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, d := range []Distribution{Normal, Bernoulli, Uniform, Poisson} {
		col := SampleColumn(d, 500, rng)
		if len(col) != 500 {
			t.Fatalf("dist %d: len = %d", d, len(col))
		}
		switch d {
		case Bernoulli:
			for _, v := range col {
				if v != 0 && v != 1 {
					t.Fatalf("Bernoulli value %v", v)
				}
			}
		case Poisson:
			for _, v := range col {
				if v < 0 || v != math.Trunc(v) {
					t.Fatalf("Poisson value %v", v)
				}
			}
		}
	}
}

// Property: binning is a pure function of value — equal values always share
// a bin.
func TestBinsValueFunctionProperty(t *testing.T) {
	f := func(raw []float64, dup uint8) bool {
		if len(raw) < 2 {
			return true
		}
		// Duplicate one value somewhere else in the slice.
		i := int(dup) % len(raw)
		j := (i + 1) % len(raw)
		raw[j] = raw[i]
		bins, _ := EqualFrequencyBins(raw, 4)
		if math.IsNaN(raw[i]) {
			return bins[i] == -1 && bins[j] == -1
		}
		return bins[i] == bins[j]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPoissonSamplerMean(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	// Poisson column means should track their (random) λ ∈ [0.5, 10]; just
	// check values are plausible counts with a sane average.
	col := SampleColumn(Poisson, 5000, rng)
	mean := Mean(col)
	if mean < 0.2 || mean > 12 {
		t.Fatalf("poisson sample mean = %v", mean)
	}
}

func TestFClassifDegenerate(t *testing.T) {
	if got := FClassif([]float64{1, 2}, []int{0, 0}, 1); got != 0 {
		t.Fatalf("single-class F = %v", got)
	}
	// All values identical in every class → F = 0.
	if got := FClassif([]float64{3, 3, 3, 3}, []int{0, 1, 0, 1}, 2); got != 0 {
		t.Fatalf("constant-feature F = %v", got)
	}
}

func TestFRegressionPerfect(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	if got := FRegression(x, x); !math.IsInf(got, 1) {
		t.Fatalf("perfect-fit F = %v, want +Inf", got)
	}
}

func TestMutualInformationEmpty(t *testing.T) {
	if got := MutualInformation(nil, 0, nil, 0); got != 0 {
		t.Fatalf("empty MI = %v", got)
	}
	if got := MutualInformation([]int{-1}, 2, []int{0}, 2); got != 0 {
		t.Fatalf("all-skipped MI = %v", got)
	}
}
