package dimexchange

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/workload"
)

func TestRandomMatchingIsMatching(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, g := range []*graph.G{graph.Cycle(10), graph.Torus(4, 4), graph.Complete(9), graph.Star(7)} {
		for trial := 0; trial < 50; trial++ {
			m := RandomMatching(g, rng)
			if !IsMatching(g, m) {
				t.Fatalf("%s: invalid matching %v", g.Name(), m)
			}
		}
	}
}

func TestRandomMatchingCoversEdgesEventually(t *testing.T) {
	// Over many rounds, every edge of a small cycle should appear.
	rng := rand.New(rand.NewSource(2))
	g := graph.Cycle(6)
	seen := map[graph.Edge]bool{}
	for trial := 0; trial < 2000; trial++ {
		for _, e := range RandomMatching(g, rng) {
			seen[e.Canonical()] = true
		}
	}
	if len(seen) != g.M() {
		t.Fatalf("only %d/%d edges ever matched", len(seen), g.M())
	}
}

func TestMatchingInclusionProbabilityLowerBound(t *testing.T) {
	// [12]-style guarantee: each edge is in the matching with probability
	// ≥ c/δ for a constant c. On the cycle (δ=2) mutual proposals happen
	// with probability 1/4, minus blocking; empirically ≳ 0.2.
	rng := rand.New(rand.NewSource(3))
	g := graph.Cycle(20)
	const trials = 5000
	target := g.Edges()[0]
	hits := 0
	for k := 0; k < trials; k++ {
		for _, e := range RandomMatching(g, rng) {
			if e.Canonical() == target {
				hits++
				break
			}
		}
	}
	p := float64(hits) / trials
	if p < 1.0/(8*float64(g.MaxDegree())) {
		t.Fatalf("edge inclusion probability %v below 1/8δ", p)
	}
}

func TestContinuousConservesAndConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := graph.Hypercube(4)
	init := workload.Continuous(workload.Spike, g.N(), 1000, nil)
	st := NewContinuous(g, init, rng)
	before := st.Load.Total()
	phi0 := st.Potential()
	for i := 0; i < 400; i++ {
		st.Step()
	}
	if math.Abs(st.Load.Total()-before) > 1e-8*(1+before) {
		t.Fatal("continuous dimension exchange must conserve")
	}
	if st.Potential() > phi0/1000 {
		t.Fatalf("barely converged: Φ %v → %v", phi0, st.Potential())
	}
}

func TestContinuousStepNeverIncreasesPotential(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.Torus(4, 4)
	init := workload.Continuous(workload.Uniform, g.N(), 100, rng)
	st := NewContinuous(g, init, rng)
	prev := st.Potential()
	for i := 0; i < 200; i++ {
		st.Step()
		cur := st.Potential()
		if cur > prev+1e-9*(1+prev) {
			t.Fatalf("Φ rose at round %d", i)
		}
		prev = cur
	}
}

func TestDiscreteConserves(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := graph.Cycle(12)
	init := workload.Discrete(workload.PowerLaw, g.N(), 100000, rng)
	st := NewDiscrete(g, init, rng)
	before := st.Load.Total()
	for i := 0; i < 300; i++ {
		st.Step()
	}
	if st.Load.Total() != before {
		t.Fatal("discrete dimension exchange must conserve tokens")
	}
}

func TestDiscreteReachesSmallDiscrepancy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := graph.Complete(16)
	init := workload.Discrete(workload.Spike, g.N(), 160000, nil)
	st := NewDiscrete(g, init, rng)
	// Mutual-proposal matchings on K_n are sparse (≈1/δ² per edge and
	// round), so give the run a generous horizon; the fixed point has all
	// pairwise differences ≤ 1, i.e. global discrepancy ≤ 1.
	for i := 0; i < 5000 && st.Load.Discrepancy() > 1; i++ {
		st.Step()
	}
	if k := st.Load.Discrepancy(); k > 1 {
		t.Fatalf("discrepancy %d after 5000 rounds on K16", k)
	}
}

func TestDiscreteNoNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := graph.Star(9)
	init := workload.Discrete(workload.Spike, g.N(), 999, nil)
	st := NewDiscrete(g, init, rng)
	for i := 0; i < 200; i++ {
		st.Step()
		for node, v := range st.Load.Tokens() {
			if v < 0 {
				t.Fatalf("node %d negative: %d", node, v)
			}
		}
	}
}

func TestIsMatchingRejects(t *testing.T) {
	g := graph.Cycle(6)
	if IsMatching(g, []graph.Edge{{U: 0, V: 3}}) {
		t.Fatal("non-edge accepted")
	}
	if IsMatching(g, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}}) {
		t.Fatal("overlapping endpoints accepted")
	}
	if !IsMatching(g, nil) {
		t.Fatal("empty matching must be valid")
	}
}

func TestSteppersValidateLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewContinuous(graph.Cycle(4), []float64{1}, rand.New(rand.NewSource(1)))
}

// Property: matched pairs end exactly balanced (continuous case).
func TestMatchedPairsBalanceProperty(t *testing.T) {
	f := func(seed uint8) bool {
		r := rand.New(rand.NewSource(int64(seed)))
		n := 4 + 2*r.Intn(8)
		g := graph.Complete(n)
		init := workload.Continuous(workload.Uniform, n, 100, r)
		st := NewContinuous(g, init, r)
		st.Step()
		for _, e := range st.LastMatching {
			if math.Abs(st.Load.At(e.U)-st.Load.At(e.V)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// IsMatching reports whether the edge set m is a matching of g (edges of g,
// pairwise disjoint endpoints).
func IsMatching(g *graph.G, m []graph.Edge) bool {
	used := make(map[int]bool, 2*len(m))
	for _, e := range m {
		if !g.HasEdge(e.U, e.V) {
			return false
		}
		if used[e.U] || used[e.V] {
			return false
		}
		used[e.U], used[e.V] = true, true
	}
	return true
}
