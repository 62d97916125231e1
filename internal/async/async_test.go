package async

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/workload"
)

func TestContinuousTickAverages(t *testing.T) {
	g := graph.Path(2)
	c := NewContinuous(g, []float64{10, 0}, RoundRobin, nil)
	c.Tick()
	if c.Load.At(0) != 5 || c.Load.At(1) != 5 {
		t.Fatalf("after tick: %v %v", c.Load.At(0), c.Load.At(1))
	}
	if c.tick != 1 {
		t.Fatal("tick count")
	}
}

func TestContinuousPotentialMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := graph.Torus(4, 4)
	c := NewContinuous(g, workload.Continuous(workload.Uniform, g.N(), 100, rng), UniformRandom, rng)
	prev := c.Potential()
	for k := 0; k < 1000; k++ {
		c.Tick()
		cur := c.Potential()
		if cur > prev+1e-9*(1+prev) {
			t.Fatalf("Φ rose at tick %d", k)
		}
		prev = cur
	}
}

func TestContinuousConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := graph.Hypercube(4)
	c := NewContinuous(g, workload.Continuous(workload.Exponential, g.N(), 10, rng), UniformRandom, rng)
	before := c.Load.Total()
	for k := 0; k < 50; k++ {
		c.Step()
	}
	if math.Abs(c.Load.Total()-before) > 1e-8*(1+math.Abs(before)) {
		t.Fatal("async continuous must conserve")
	}
}

func TestContinuousConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.Cycle(16)
	c := NewContinuous(g, workload.Continuous(workload.Spike, g.N(), 1e6, nil), UniformRandom, rng)
	phi0 := c.Potential()
	for k := 0; k < 500; k++ {
		c.Step()
	}
	if c.Potential() > 1e-6*phi0 {
		t.Fatalf("Φ %v after 500 round-budgets", c.Potential())
	}
}

func TestRoundRobinDeterministic(t *testing.T) {
	g := graph.Torus(3, 3)
	init := workload.Continuous(workload.Spike, g.N(), 900, nil)
	a := NewContinuous(g, init, RoundRobin, nil)
	b := NewContinuous(g, init, RoundRobin, nil)
	for k := 0; k < 5; k++ {
		a.Step()
		b.Step()
	}
	if !a.Load.Vector().ApproxEqual(b.Load.Vector(), 0) {
		t.Fatal("round robin must be deterministic")
	}
}

func TestDiscreteConservesAndStaysNonNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := graph.Star(9)
	d := NewDiscrete(g, workload.Discrete(workload.Spike, g.N(), 12345, nil), UniformRandom, rng)
	before := d.Load.Total()
	for k := 0; k < 100; k++ {
		d.Step()
		for node, v := range d.Load.Tokens() {
			if v < 0 {
				t.Fatalf("node %d negative", node)
			}
		}
	}
	if d.Load.Total() != before {
		t.Fatal("tokens not conserved")
	}
}

func TestDiscreteReachesDiameterDiscrepancy(t *testing.T) {
	// Fixed points of the pairwise ⌊diff/2⌋ rule have all adjacent
	// differences ≤ 1 (the paper's line example), so the global
	// discrepancy can legitimately stall at up to the graph diameter.
	g := graph.Cycle(8)
	bound := int64(graph.Diameter(g))
	d := NewDiscrete(g, workload.Discrete(workload.Spike, g.N(), 8000, nil), RoundRobin, nil)
	// Run round-robin sweeps until a full sweep moves nothing (true fixed
	// point); must happen quickly.
	for k := 0; k < 2000; k++ {
		before := d.Load.Clone()
		d.Step()
		same := true
		for i := 0; i < g.N(); i++ {
			if before.At(i) != d.Load.At(i) {
				same = false
				break
			}
		}
		if same {
			break
		}
	}
	if k := d.Load.Discrepancy(); k > bound {
		t.Fatalf("discrepancy %d above diameter bound %d", k, bound)
	}
	// And adjacent differences must be ≤ 1 at the fixed point.
	for _, e := range g.Edges() {
		diff := d.Load.At(e.U) - d.Load.At(e.V)
		if diff < -1 || diff > 1 {
			t.Fatalf("edge %v difference %d at fixed point", e, diff)
		}
	}
}

func TestEmptyGraphTicksAreNoops(t *testing.T) {
	g := graph.NewBuilder("iso", 3).MustFinish()
	c := NewContinuous(g, []float64{1, 2, 3}, UniformRandom, rand.New(rand.NewSource(1)))
	c.Tick()
	c.Step()
	if c.Load.At(0) != 1 {
		t.Fatal("no edges, no movement")
	}
}

func TestScheduleString(t *testing.T) {
	if UniformRandom.String() != "uniform" || RoundRobin.String() != "roundrobin" {
		t.Fatal("schedule names")
	}
}

// Property: a tick on (u,v) zeroes their difference (continuous) and halves
// it rounding down (discrete).
func TestTickPairBalanceProperty(t *testing.T) {
	f := func(seed uint8) bool {
		r := rand.New(rand.NewSource(int64(seed)))
		g := graph.Complete(4 + r.Intn(6))
		c := NewContinuous(g, workload.Continuous(workload.Uniform, g.N(), 100, r), RoundRobin, nil)
		before := c.Load.Total()
		c.Tick()
		e := g.Edges()[0]
		if math.Abs(c.Load.At(e.U)-c.Load.At(e.V)) > 1e-9 {
			return false
		}
		return math.Abs(c.Load.Total()-before) < 1e-9*(1+math.Abs(before))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
