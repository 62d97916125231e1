package sequential

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/diffusion"
	"repro/internal/graph"
	"repro/internal/matrix"
	"repro/internal/workload"
)

func TestSequentializeEndsAtConcurrentState(t *testing.T) {
	// The sequentialization applies the same fixed flows one at a time, so
	// its end state — and hence total drop — must equal the concurrent
	// round's exactly. This is the structural heart of the proof.
	rng := rand.New(rand.NewSource(1))
	for _, g := range []*graph.G{graph.Cycle(10), graph.Torus(3, 4), graph.Star(8), graph.Petersen()} {
		l := matrix.Vector(workload.Continuous(workload.Uniform, g.N(), 100, rng))
		rt := Sequentialize(g, l, IncreasingWeight, rng)

		st := diffusion.NewContinuous(g, l)
		phi0 := st.Potential()
		st.Step()
		concDrop := phi0 - st.Potential()
		if math.Abs(rt.TotalDrop()-concDrop) > 1e-7*(1+concDrop) {
			t.Fatalf("%s: sequential drop %v != concurrent drop %v", g.Name(), rt.TotalDrop(), concDrop)
		}
	}
}

func TestLemma1HoldsIncreasingOrder(t *testing.T) {
	// Lemma 1: every activation in increasing-weight order drops the
	// potential by at least w_ij·|ℓᵢ−ℓⱼ|.
	rng := rand.New(rand.NewSource(2))
	for _, g := range []*graph.G{
		graph.Cycle(12), graph.Torus(4, 4), graph.Hypercube(4),
		graph.Star(10), graph.Path(9), graph.Complete(8),
	} {
		for trial := 0; trial < 20; trial++ {
			l := matrix.Vector(workload.Continuous(workload.Uniform, g.N(), 1000, rng))
			rt := Sequentialize(g, l, IncreasingWeight, rng)
			if v := rt.Lemma1Violations(); v != 0 {
				t.Fatalf("%s trial %d: %d Lemma 1 violations", g.Name(), trial, v)
			}
		}
	}
}

func TestLemma2HoldsIncreasingOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, g := range []*graph.G{graph.Cycle(12), graph.Torus(4, 4), graph.Hypercube(3)} {
		for trial := 0; trial < 10; trial++ {
			l := matrix.Vector(workload.Continuous(workload.Exponential, g.N(), 100, rng))
			rt := Sequentialize(g, l, IncreasingWeight, rng)
			if !rt.Lemma2Holds() {
				t.Fatalf("%s: round drop %v below Lemma 2 bound %v", g.Name(), rt.TotalDrop(), rt.Lemma2RHS)
			}
		}
	}
}

func TestSequentializeSpikeOnStar(t *testing.T) {
	// Hand-checkable instance: star with spike at the centre.
	g := graph.Star(5)
	l := matrix.Vector{16, 0, 0, 0, 0}
	rt := Sequentialize(g, l, IncreasingWeight, nil)
	// Every edge has w = 16/(4·4) = 1, so 4 activations of 1 unit each.
	if len(rt.Activations) != 4 {
		t.Fatalf("activations: %d", len(rt.Activations))
	}
	for _, a := range rt.Activations {
		if math.Abs(a.Weight-1) > 1e-12 {
			t.Fatalf("weight %v, want 1", a.Weight)
		}
		if !a.Lemma1Holds() {
			t.Fatal("Lemma 1 must hold here")
		}
	}
	// End state: centre 12, leaves 1 each.
	if math.Abs(rt.PhiEnd-rt.PhiStart+rt.TotalDrop()) > 1e-9 {
		t.Fatal("drop accounting inconsistent")
	}
}

func TestAlternativeOrdersSameTotalDrop(t *testing.T) {
	// Activation order cannot change the end state (flows are fixed), only
	// the per-activation attribution.
	rng := rand.New(rand.NewSource(4))
	g := graph.Torus(4, 4)
	l := matrix.Vector(workload.Continuous(workload.Uniform, g.N(), 100, rng))
	inc := Sequentialize(g, l, IncreasingWeight, rng)
	dec := Sequentialize(g, l, DecreasingWeight, rng)
	rnd := Sequentialize(g, l, RandomOrder, rng)
	if math.Abs(inc.TotalDrop()-dec.TotalDrop()) > 1e-8*(1+inc.TotalDrop()) {
		t.Fatal("decreasing order changed the total drop")
	}
	if math.Abs(inc.TotalDrop()-rnd.TotalDrop()) > 1e-8*(1+inc.TotalDrop()) {
		t.Fatal("random order changed the total drop")
	}
}

func TestGreedyRoundNonNegativeDrop(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.Hypercube(4)
	l := matrix.Vector(workload.Continuous(workload.Uniform, g.N(), 100, rng))
	phi0 := matrixPotential(l)
	end := GreedyRound(g, l, IncreasingWeight, rng)
	if end > phi0+1e-9 {
		t.Fatalf("greedy round increased Φ: %v → %v", phi0, end)
	}
}

func TestMeasureGapBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := graph.Torus(4, 4)
	l := matrix.Vector(workload.Continuous(workload.Spike, g.N(), 1000, nil))
	rep := MeasureGap(g, l, rng)
	if rep.Lemma1Violated != 0 {
		t.Fatalf("violations: %d", rep.Lemma1Violated)
	}
	// Sequential (fixed-flow) and concurrent drops coincide.
	if math.Abs(rep.ConcurrentDrop-rep.SequentialDrop) > 1e-7*(1+rep.ConcurrentDrop) {
		t.Fatalf("drops differ: %v vs %v", rep.ConcurrentDrop, rep.SequentialDrop)
	}
	// The analysis' bound: concurrent drop ≥ Σ w|diff| (ratio ≥ 1).
	if rep.ConcurrentRatio < 1-1e-9 {
		t.Fatalf("concurrent/bound ratio %v < 1", rep.ConcurrentRatio)
	}
	if rep.ConcurrentDrop < rep.Lemma2RHS-1e-9 {
		t.Fatal("Lemma 2 violated in gap report")
	}
}

func TestOrderString(t *testing.T) {
	if IncreasingWeight.String() != "increasing" || DecreasingWeight.String() != "decreasing" ||
		RandomOrder.String() != "random" || Order(9).String() != "unknown" {
		t.Fatal("order names wrong")
	}
}

func TestSequentializeLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Sequentialize(graph.Cycle(4), matrix.Vector{1}, IncreasingWeight, nil)
}

// Property: Lemma 1 holds in increasing-weight order on random graphs with
// random loads — the paper's core claim as a property test.
func TestLemma1Property(t *testing.T) {
	f := func(seed uint8) bool {
		r := rand.New(rand.NewSource(int64(seed)))
		n := 4 + r.Intn(16)
		g := graph.ErdosRenyi(n, 0.5, r)
		l := matrix.Vector(workload.Continuous(workload.Uniform, n, 500, r))
		rt := Sequentialize(g, l, IncreasingWeight, r)
		return rt.Lemma1Violations() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: the per-activation drops sum to the round's total drop (exact
// additive decomposition).
func TestDecompositionSumsProperty(t *testing.T) {
	f := func(seed uint8) bool {
		r := rand.New(rand.NewSource(int64(seed)))
		n := 4 + r.Intn(12)
		g := graph.ErdosRenyi(n, 0.6, r)
		l := matrix.Vector(workload.Continuous(workload.Uniform, n, 100, r))
		rt := Sequentialize(g, l, IncreasingWeight, r)
		var sum float64
		for _, a := range rt.Activations {
			sum += a.Drop
		}
		return math.Abs(sum-rt.TotalDrop()) < 1e-7*(1+math.Abs(rt.TotalDrop()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func matrixPotential(l matrix.Vector) float64 {
	avg := l.Mean()
	var s float64
	for _, v := range l {
		d := v - avg
		s += d * d
	}
	return s
}

// Lemma2Holds reports whether the round's total drop meets the Lemma 2
// lower bound.
func (rt RoundTrace) Lemma2Holds() bool {
	const slack = 1e-9
	return rt.TotalDrop() >= rt.Lemma2RHS-slack*(1+rt.Lemma2RHS)
}
