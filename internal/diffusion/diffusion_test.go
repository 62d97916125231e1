package diffusion

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/load"
	"repro/internal/spectral"
	"repro/internal/workload"
)

func TestEdgeWeightRule(t *testing.T) {
	g := graph.Star(5) // centre degree 4, leaves degree 1
	// Edge (0,1): max degree 4, diff 8 → 8/(4·4) = 0.5.
	if got := EdgeWeight(g, 0, 1, 10, 2); math.Abs(got-0.5) > 1e-15 {
		t.Fatalf("weight = %v, want 0.5", got)
	}
	// Symmetric in load order.
	if EdgeWeight(g, 0, 1, 2, 10) != EdgeWeight(g, 0, 1, 10, 2) {
		t.Fatal("weight must be symmetric in loads")
	}
}

func TestContinuousStepConserves(t *testing.T) {
	g := graph.Cycle(8)
	init := workload.Continuous(workload.Uniform, 8, 100, rand.New(rand.NewSource(1)))
	st := NewContinuous(g, init)
	before := st.Load.Total()
	for i := 0; i < 50; i++ {
		st.Step()
	}
	if math.Abs(st.Load.Total()-before) > 1e-8*math.Abs(before) {
		t.Fatalf("total drifted: %v → %v", before, st.Load.Total())
	}
}

func TestContinuousPotentialMonotone(t *testing.T) {
	g := graph.Torus(4, 4)
	init := workload.Continuous(workload.Spike, 16, 1000, nil)
	st := NewContinuous(g, init)
	prev := st.Potential()
	for i := 0; i < 100; i++ {
		st.Step()
		cur := st.Potential()
		if cur > prev+1e-9*(1+prev) {
			t.Fatalf("round %d: Φ rose %v → %v", i, prev, cur)
		}
		prev = cur
	}
}

func TestContinuousMatchesPaperDiffusionMatrix(t *testing.T) {
	// One Algorithm 1 round must equal applying the paper's diffusion
	// matrix, since the rule is symmetric per edge.
	g := graph.Petersen()
	rng := rand.New(rand.NewSource(2))
	init := workload.Continuous(workload.Uniform, g.N(), 50, rng)
	st := NewContinuous(g, init)
	st.Step()

	m := spectral.PaperDiffusionMatrix(g)
	ms := NewMatrixStepper(m, init)
	ms.Step()
	if !st.Load.Vector().ApproxEqual(ms.Load.Vector(), 1e-10) {
		t.Fatal("sparse step disagrees with matrix step")
	}
}

func TestContinuousParallelMatchesSerial(t *testing.T) {
	g := graph.Torus(6, 6)
	rng := rand.New(rand.NewSource(3))
	init := workload.Continuous(workload.Uniform, g.N(), 100, rng)
	serial := NewContinuous(g, init)
	par := NewContinuous(g, init)
	par.Workers = 8
	for i := 0; i < 20; i++ {
		serial.Step()
		par.Step()
	}
	if !serial.Load.Vector().ApproxEqual(par.Load.Vector(), 0) {
		t.Fatal("parallel executor must be bitwise identical to serial")
	}
}

func TestTheorem4BoundHolds(t *testing.T) {
	// Continuous Algorithm 1 must reach εΦ⁰ within T = 4δ·ln(1/ε)/λ₂.
	const eps = 1e-3
	for _, g := range []*graph.G{
		graph.Cycle(16),
		graph.Torus(4, 4),
		graph.Hypercube(4),
		graph.Complete(12),
		graph.Path(12),
		graph.Star(12),
	} {
		lambda2 := spectral.MustLambda2(g)
		bound := int(math.Ceil(ContinuousBound(g, lambda2, eps)))
		init := workload.Continuous(workload.Spike, g.N(), 1e6, nil)
		st := NewContinuous(g, init)
		phi0 := st.Potential()
		rounds := 0
		for ; rounds <= bound && st.Potential() > eps*phi0; rounds++ {
			st.Step()
		}
		if st.Potential() > eps*phi0 {
			t.Fatalf("%s: Φ after %d (bound) rounds is %v > εΦ⁰ = %v",
				g.Name(), bound, st.Potential(), eps*phi0)
		}
	}
}

func TestDiscreteStepConservesTokens(t *testing.T) {
	g := graph.Torus(4, 4)
	rng := rand.New(rand.NewSource(4))
	init := workload.Discrete(workload.Uniform, g.N(), 100000, rng)
	st := NewDiscrete(g, init)
	before := st.Load.Total()
	for i := 0; i < 100; i++ {
		st.Step()
	}
	if st.Load.Total() != before {
		t.Fatalf("tokens not conserved: %d → %d", before, st.Load.Total())
	}
}

func TestDiscreteNoNegativeLoads(t *testing.T) {
	g := graph.Star(10)
	init := workload.Discrete(workload.Spike, g.N(), 1000, nil)
	st := NewDiscrete(g, init)
	for i := 0; i < 200; i++ {
		st.Step()
		for node, v := range st.Load.Tokens() {
			if v < 0 {
				t.Fatalf("round %d: node %d went negative: %d", i, node, v)
			}
		}
	}
}

func TestDiscreteParallelMatchesSerial(t *testing.T) {
	g := graph.Hypercube(5)
	rng := rand.New(rand.NewSource(5))
	init := workload.Discrete(workload.PowerLaw, g.N(), 500000, rng)
	serial := NewDiscrete(g, init)
	par := NewDiscrete(g, init)
	par.Workers = 4
	for i := 0; i < 30; i++ {
		serial.Step()
		par.Step()
	}
	for i, v := range serial.Load.Tokens() {
		if par.Load.Tokens()[i] != v {
			t.Fatal("parallel discrete executor must match serial exactly")
		}
	}
}

func TestTheorem6DiscreteReachesThreshold(t *testing.T) {
	// Discrete Algorithm 1 must push Φ below 64δ³n/λ₂ within the Theorem 6
	// bound (we allow the bound exactly; the theorem is an upper bound).
	for _, g := range []*graph.G{
		graph.Cycle(16),
		graph.Torus(4, 4),
		graph.Hypercube(4),
	} {
		lambda2 := spectral.MustLambda2(g)
		init := workload.Discrete(workload.Spike, g.N(), 10_000_000, nil)
		st := NewDiscrete(g, init)
		phi0 := st.Potential()
		thr := DiscreteThreshold(g, lambda2)
		bound := int(math.Ceil(DiscreteBound(g, lambda2, phi0)))
		rounds := 0
		for ; rounds <= bound && st.Potential() > thr; rounds++ {
			st.Step()
		}
		if st.Potential() > thr {
			t.Fatalf("%s: Φ=%v still above threshold %v after bound %d rounds",
				g.Name(), st.Potential(), thr, bound)
		}
	}
}

func TestDiscreteLineRampIsStable(t *testing.T) {
	// The paper's introductory example: on the path with ℓᵢ = i, no pair
	// differs by enough to move a token, so the state is a fixed point.
	n := 10
	g := graph.Path(n)
	init := make([]int64, n)
	for i := range init {
		init[i] = int64(i)
	}
	st := NewDiscrete(g, init)
	st.Step()
	for i, v := range st.Load.Tokens() {
		if v != int64(i) {
			t.Fatalf("ramp moved: node %d = %d", i, v)
		}
	}
}

func TestBoundsHelpers(t *testing.T) {
	g := graph.Cycle(8)
	l2 := spectral.MustLambda2(g)
	if b := ContinuousBound(g, l2, 0.5); b <= 0 {
		t.Fatalf("continuous bound %v", b)
	}
	if thr := DiscreteThreshold(g, l2); thr <= 0 {
		t.Fatalf("threshold %v", thr)
	}
	// Below-threshold start needs 0 rounds.
	if b := DiscreteBound(g, l2, 1); b != 0 {
		t.Fatalf("below-threshold bound %v, want 0", b)
	}
}

func TestRoundFlowsContinuousAntisymmetry(t *testing.T) {
	g := graph.Torus(3, 3)
	rng := rand.New(rand.NewSource(6))
	l := workload.Continuous(workload.Uniform, g.N(), 10, rng)
	flows := RoundFlowsContinuous(g, l)
	for _, f := range flows {
		// Flow direction must go from heavier to lighter.
		hi, lo := f.Edge.U, f.Edge.V
		amt := f.Amount
		if amt < 0 {
			hi, lo = lo, hi
			amt = -amt
		}
		if l[hi] < l[lo] {
			t.Fatalf("flow runs uphill on edge %v", f.Edge)
		}
		if amt <= 0 {
			t.Fatal("zero flows must be omitted")
		}
	}
}

func TestRoundFlowsDiscreteFloor(t *testing.T) {
	g := graph.Path(2)
	st := NewDiscrete(g, []int64{10, 0})
	st.Step()
	// w = 10/(4·1) = 2.5 → 2 tokens.
	if got := st.LoadTokens(); got[0] != 8 || got[1] != 2 {
		t.Fatalf("after one round: %v, want [8 2]", got)
	}
	// Sub-threshold difference moves nothing.
	st = NewDiscrete(g, []int64{3, 0})
	st.Step()
	if got := st.LoadTokens(); got[0] != 3 || got[1] != 0 {
		t.Fatalf("after one round: %v, want [3 0]", got)
	}
}

func TestNewSteppersValidateLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewContinuous(graph.Cycle(4), []float64{1})
}

// Property: one continuous round never increases Φ, for random graphs and
// random loads (Lemma 2 as a property test).
func TestContinuousDropProperty(t *testing.T) {
	f := func(seed uint8) bool {
		r := rand.New(rand.NewSource(int64(seed)))
		n := 4 + r.Intn(16)
		g := graph.ErdosRenyi(n, 0.5, r)
		init := workload.Continuous(workload.Uniform, n, 100, r)
		st := NewContinuous(g, init)
		phi0 := st.Potential()
		st.Step()
		return st.Potential() <= phi0+1e-9*(1+phi0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: the continuous round drop satisfies the Lemma 2 lower bound
// (1/4δ)·Σ(ℓᵢ−ℓⱼ)².
func TestLemma2LowerBoundProperty(t *testing.T) {
	f := func(seed uint8) bool {
		r := rand.New(rand.NewSource(int64(seed)))
		n := 4 + r.Intn(12)
		g := graph.ErdosRenyi(n, 0.6, r)
		if g.MaxDegree() == 0 {
			return true
		}
		init := workload.Continuous(workload.Uniform, n, 50, r)
		st := NewContinuous(g, init)
		l := load.NewContinuous(init)
		var rhs float64
		for _, e := range g.Edges() {
			d := l.At(e.U) - l.At(e.V)
			rhs += d * d
		}
		rhs /= 4 * float64(g.MaxDegree())
		phi0 := st.Potential()
		st.Step()
		drop := phi0 - st.Potential()
		return drop >= rhs-1e-9*(1+rhs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: discrete rounds conserve tokens on random graphs.
func TestDiscreteConservationProperty(t *testing.T) {
	f := func(seed uint8) bool {
		r := rand.New(rand.NewSource(int64(seed)))
		n := 3 + r.Intn(20)
		g := graph.ErdosRenyi(n, 0.4, r)
		init := workload.Discrete(workload.Uniform, n, int64(1000+r.Intn(100000)), r)
		st := NewDiscrete(g, init)
		before := st.Load.Total()
		for k := 0; k < 5; k++ {
			st.Step()
		}
		return st.Load.Total() == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
