package ballsbins

import (
	"math"
	"math/rand"
	"testing"
)

func TestThrowConservesBalls(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	occ := Throw(1000, 50, rng)
	total := 0
	for _, c := range occ {
		total += c
	}
	if total != 1000 {
		t.Fatalf("total %d", total)
	}
}

func TestMaxLoadAtLeastAverage(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	if got := MaxLoad(100, 10, rng); got < 10 {
		t.Fatalf("max load %d below average", got)
	}
}

func TestMaxLoadSingleBin(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	if got := MaxLoad(42, 1, rng); got != 42 {
		t.Fatalf("single bin max %d", got)
	}
}

func TestExpectedMaxLoadApproxGrows(t *testing.T) {
	prev := 0.0
	for _, n := range []int{10, 100, 1000, 10000} {
		v := ExpectedMaxLoadApprox(n)
		if v <= prev {
			t.Fatalf("approx not increasing at n=%d", n)
		}
		prev = v
	}
	if ExpectedMaxLoadApprox(2) != 1 {
		t.Fatal("small-n convention")
	}
}

func TestMaxLoadTracksTheory(t *testing.T) {
	// For n balls in n bins the max load concentrates near
	// ln n/ln ln n·(1+o(1)); allow a generous [1, 4]× band around it.
	rng := rand.New(rand.NewSource(4))
	n := 1024
	stats := MaxLoadStats(n, 50, rng)
	var mean float64
	for _, v := range stats {
		mean += v
	}
	mean /= float64(len(stats))
	approx := ExpectedMaxLoadApprox(n)
	if mean < approx || mean > 4*approx {
		t.Fatalf("mean max load %v outside [%v, %v]", mean, approx, 4*approx)
	}
}

func TestCollisionProbabilityMatchesTailBound(t *testing.T) {
	// Lemma 9's calculation: Pr[Binomial(n−1, 1/n) ≥ 5] < (e/5)⁵ ≈ 0.045.
	rng := rand.New(rand.NewSource(5))
	n := 256
	p := CollisionProbability(n, 4, 4000, rng) // strictly more than 4 ⇒ ≥ 5
	bound := BinomialTailBound(n, 1/float64(n), 5)
	if p > bound*1.5 { // Monte-Carlo slack
		t.Fatalf("measured tail %v exceeds bound %v", p, bound)
	}
}

func TestBinomialTailBoundLemma9Constants(t *testing.T) {
	// The paper's two constants: (e/5)⁵ < 0.05 and (e/4)⁴ < 0.25.
	if b := math.Pow(math.E/5, 5); b >= 0.05 {
		t.Fatalf("(e/5)⁵ = %v", b)
	}
	if b := math.Pow(math.E/4, 4); b >= 0.25 {
		t.Fatalf("(e/4)⁴ = %v", b)
	}
	// BinomialTailBound with p = 1/n reproduces (e/k)^k.
	got := BinomialTailBound(100, 0.01, 5)
	want := math.Pow(math.E/5, 5)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("bound %v, want %v", got, want)
	}
}

// CollisionProbability estimates, by Monte-Carlo, the probability that a
// fixed bin receives more than k balls when n balls are thrown into n bins
// — the quantity Lemma 9 bounds by (e/k)^k via the binomial tail.
func CollisionProbability(n, k, trials int, rng *rand.Rand) float64 {
	over := 0
	for t := 0; t < trials; t++ {
		// Only bin 0's count matters; sample it directly as Binomial(n, 1/n).
		c := 0
		for b := 0; b < n; b++ {
			if rng.Float64() < 1/float64(n) {
				c++
			}
		}
		if c > k {
			over++
		}
	}
	return float64(over) / float64(trials)
}

// BinomialTailBound returns the Lemma 9-style union bound
// C(n,k)·p^k ≤ (e·n·p/k)^k on Pr[Binomial(n, p) ≥ k].
func BinomialTailBound(n int, p float64, k int) float64 {
	return math.Pow(math.E*float64(n)*p/float64(k), float64(k))
}
