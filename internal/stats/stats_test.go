package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Mean != 5 {
		t.Fatalf("summary: %+v", s)
	}
	if math.Abs(s.Variance-32.0/7) > 1e-12 {
		t.Fatalf("variance %v", s.Variance)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("min/max: %+v", s)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || !math.IsInf(s.Min, 1) || !math.IsInf(s.Max, -1) {
		t.Fatalf("empty summary: %+v", s)
	}
}

func TestSummarizeSingleton(t *testing.T) {
	s := Summarize([]float64{3})
	if s.Mean != 3 || s.Variance != 0 {
		t.Fatalf("singleton: %+v", s)
	}
}

func TestLinearFitExact(t *testing.T) {
	x := []float64{0, 1, 2, 3}
	y := []float64{1, 3, 5, 7} // y = 1 + 2x
	a, b, r2 := LinearFit(x, y)
	if math.Abs(a-1) > 1e-12 || math.Abs(b-2) > 1e-12 {
		t.Fatalf("fit a=%v b=%v", a, b)
	}
	if math.Abs(r2-1) > 1e-12 {
		t.Fatalf("R² = %v", r2)
	}
}

func TestLinearFitConstantX(t *testing.T) {
	a, b, r2 := LinearFit([]float64{2, 2, 2}, []float64{1, 2, 3})
	if b != 0 || a != 2 || r2 != 0 {
		t.Fatalf("degenerate fit a=%v b=%v r2=%v", a, b, r2)
	}
}

func TestLinearFitConstantY(t *testing.T) {
	_, b, r2 := LinearFit([]float64{1, 2, 3}, []float64{5, 5, 5})
	if b != 0 || r2 != 1 {
		t.Fatalf("flat fit b=%v r2=%v", b, r2)
	}
}

func TestGeometricDecayRateExact(t *testing.T) {
	series := []float64{100, 50, 25, 12.5}
	if got := GeometricDecayRate(series); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("rate %v, want 0.5", got)
	}
}

func TestGeometricDecayRateStopsAtZero(t *testing.T) {
	series := []float64{100, 10, 0, 5}
	got := GeometricDecayRate(series)
	if math.Abs(got-0.1) > 1e-9 {
		t.Fatalf("rate %v, want 0.1 (prefix only)", got)
	}
}

func TestGeometricDecayRateDegenerate(t *testing.T) {
	if GeometricDecayRate([]float64{5}) != 1 {
		t.Fatal("single point must yield 1")
	}
	if GeometricDecayRate(nil) != 1 {
		t.Fatal("empty must yield 1")
	}
}

// Property: mean is within [min, max] and variance nonnegative.
func TestSummaryInvariantsProperty(t *testing.T) {
	f := func(seed uint8) bool {
		r := rand.New(rand.NewSource(int64(seed)))
		n := 1 + r.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64() * 10
		}
		s := Summarize(xs)
		return s.Mean >= s.Min-1e-12 && s.Mean <= s.Max+1e-12 && s.Variance >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
