package hetero

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

func TestUniformSpeedsReduceToAlgorithm1(t *testing.T) {
	g := graph.Torus(4, 4)
	rng := rand.New(rand.NewSource(1))
	init := workload.Continuous(workload.Uniform, g.N(), 100, rng)
	h, err := NewContinuous(g, init, UniformSpeeds(g.N()))
	if err != nil {
		t.Fatal(err)
	}
	a1 := diffusion.NewContinuous(g, init)
	for k := 0; k < 20; k++ {
		h.Step()
		a1.Step()
	}
	if !h.Load.Vector().ApproxEqual(a1.Load.Vector(), 1e-9) {
		t.Fatal("unit speeds must reproduce Algorithm 1 exactly")
	}
}

func TestConservation(t *testing.T) {
	g := graph.Hypercube(4)
	rng := rand.New(rand.NewSource(2))
	init := workload.Continuous(workload.Exponential, g.N(), 50, rng)
	speeds := make([]float64, g.N())
	for i := range speeds {
		speeds[i] = 0.5 + 3*rng.Float64()
	}
	h, err := NewContinuous(g, init, speeds)
	if err != nil {
		t.Fatal(err)
	}
	before := h.Load.Total()
	for k := 0; k < 200; k++ {
		h.Step()
	}
	if math.Abs(h.Load.Total()-before) > 1e-8*(1+math.Abs(before)) {
		t.Fatal("heterogeneous diffusion must conserve load")
	}
}

func TestPotentialMonotone(t *testing.T) {
	g := graph.Cycle(12)
	rng := rand.New(rand.NewSource(3))
	init := workload.Continuous(workload.Spike, g.N(), 1200, nil)
	speeds := make([]float64, g.N())
	for i := range speeds {
		speeds[i] = 1 + 4*rng.Float64()
	}
	h, err := NewContinuous(g, init, speeds)
	if err != nil {
		t.Fatal(err)
	}
	prev := h.Potential()
	for k := 0; k < 500; k++ {
		h.Step()
		cur := h.Potential()
		if cur > prev+1e-9*(1+prev) {
			t.Fatalf("Φ_c rose at round %d: %v → %v", k, prev, cur)
		}
		prev = cur
	}
}

func TestConvergesToProportionalShare(t *testing.T) {
	// Fast nodes (speed 4) must end with 4× the load of slow ones (speed 1).
	g := graph.Torus(4, 4)
	speeds := make([]float64, g.N())
	for i := range speeds {
		if i%2 == 0 {
			speeds[i] = 4
		} else {
			speeds[i] = 1
		}
	}
	init := workload.Continuous(workload.Spike, g.N(), 16000, nil)
	h, err := NewContinuous(g, init, speeds)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 5000 && h.MaxRelativeDeviation() > 1e-9; k++ {
		h.Step()
	}
	if dev := h.MaxRelativeDeviation(); dev > 1e-9 {
		t.Fatalf("relative deviation %v after 5000 rounds", dev)
	}
	target := h.TargetLoads()
	for i := 0; i < g.N(); i++ {
		if math.Abs(h.Load.At(i)-target[i]) > 1e-6*(1+target[i]) {
			t.Fatalf("node %d: load %v, target %v", i, h.Load.At(i), target[i])
		}
	}
	// Sanity on the proportionality itself.
	omega := h.Omega()
	if math.Abs(h.Load.At(0)-4*omega) > 1e-6*(1+omega) {
		t.Fatalf("fast node load %v, want %v", h.Load.At(0), 4*omega)
	}
}

func TestValidation(t *testing.T) {
	g := graph.Cycle(4)
	if _, err := NewContinuous(g, []float64{1}, UniformSpeeds(4)); err == nil {
		t.Fatal("length mismatch must error")
	}
	if _, err := NewContinuous(g, []float64{1, 1, 1, 1}, []float64{1, 0, 1, 1}); err == nil {
		t.Fatal("zero speed must error")
	}
	if _, err := NewContinuous(g, []float64{1, 1, 1, 1}, []float64{1, -2, 1, 1}); err == nil {
		t.Fatal("negative speed must error")
	}
	if _, err := NewContinuous(g, []float64{1, 1, 1, 1}, []float64{1, math.Inf(1), 1, 1}); err == nil {
		t.Fatal("infinite speed must error")
	}
}

func TestEdgeTransferAntisymmetry(t *testing.T) {
	g := graph.Path(2)
	h, err := NewContinuous(g, []float64{10, 2}, []float64{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	fwd := h.EdgeTransfer(0, 1, 10, 2)
	rev := h.EdgeTransfer(1, 0, 2, 10)
	if math.Abs(fwd+rev) > 1e-12 {
		t.Fatalf("transfers not antisymmetric: %v vs %v", fwd, rev)
	}
	// Normalized loads 5 vs 2: node 0 sends.
	if fwd <= 0 {
		t.Fatalf("heavier-per-speed node must send, got %v", fwd)
	}
}

// Property: conservation and monotone Φ_c on random graphs/speeds.
func TestHeteroInvariantsProperty(t *testing.T) {
	f := func(seed uint8) bool {
		r := rand.New(rand.NewSource(int64(seed)))
		n := 4 + r.Intn(12)
		g := graph.ErdosRenyi(n, 0.5, r)
		init := workload.Continuous(workload.Uniform, n, 100, r)
		speeds := make([]float64, n)
		for i := range speeds {
			speeds[i] = 0.25 + 4*r.Float64()
		}
		h, err := NewContinuous(g, init, speeds)
		if err != nil {
			return false
		}
		before := h.Load.Total()
		phi := h.Potential()
		for k := 0; k < 10; k++ {
			h.Step()
			cur := h.Potential()
			if cur > phi+1e-9*(1+phi) {
				return false
			}
			phi = cur
		}
		return math.Abs(h.Load.Total()-before) < 1e-8*(1+math.Abs(before))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TargetLoads returns the proportional-fair target vector ℓᵢ* = cᵢ·ω.
func (h *Continuous) TargetLoads() matrix.Vector {
	omega := h.Omega()
	out := make(matrix.Vector, len(h.Speeds))
	for i, c := range h.Speeds {
		out[i] = c * omega
	}
	return out
}

// UniformSpeeds returns an all-ones speed vector (the homogeneous case).
func UniformSpeeds(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 1
	}
	return out
}
