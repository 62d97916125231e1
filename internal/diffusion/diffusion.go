// Package diffusion implements the paper's primary contribution surface:
// Algorithm 1 ("diff-balancing"), the synchronous diffusion load balancer in
// which every node concurrently compares its load with every neighbour and
// sends (ℓᵢ − ℓⱼ)/(4·max(dᵢ, dⱼ)) to each lighter neighbour j — in the
// continuous model (fractional load, §4.1) and the discrete model
// (indivisible tokens, floor of the same quantity, §4.2).
//
// The package also implements the classical comparators the paper discusses:
// Cybenko's first-order scheme Lᵗ⁺¹ = M·Lᵗ with uniform diffusion factor
// α = 1/(δ+1) [3], and the second-order scheme of Muthukrishnan, Ghosh and
// Schultz [15] with momentum parameter β.
//
// All steppers are deterministic; one round reads the round-start load
// vector and applies all edge flows computed from it, exactly matching the
// paper's synchronous model. Because each node's next load is a function of
// the round-start vector only, rounds are data-parallel and the steppers
// accept a worker count (see internal/parallel).
package diffusion

import (
	"math"

	"repro/internal/graph"
	"repro/internal/load"
	"repro/internal/matrix"
	"repro/internal/parallel"
)

// Flow records the net transfer across one edge in one round; Amount > 0
// moves load from Edge.U to Edge.V, Amount < 0 the other way.
type Flow struct {
	Edge   graph.Edge
	Amount float64
}

// EdgeWeight returns the magnitude of the Algorithm 1 transfer across edge
// (i, j) for round-start loads li, lj:
//
//	w_ij = |ℓᵢ − ℓⱼ| / (4·max(dᵢ, dⱼ)).
//
// This is the weight the sequentialized analysis sorts edges by.
func EdgeWeight(g *graph.G, i, j int, li, lj float64) float64 {
	di, dj := g.Degree(i), g.Degree(j)
	if dj > di {
		di = dj
	}
	return math.Abs(li-lj) / (4 * float64(di))
}

// RoundFlowsContinuous computes the per-edge flows Algorithm 1 sends in one
// round from the given load vector, without applying them.
func RoundFlowsContinuous(g *graph.G, l matrix.Vector) []Flow {
	flows := make([]Flow, 0, g.M())
	for _, e := range g.Edges() {
		w := EdgeWeight(g, e.U, e.V, l[e.U], l[e.V])
		if w == 0 {
			continue
		}
		amt := w
		if l[e.U] < l[e.V] {
			amt = -w
		}
		flows = append(flows, Flow{Edge: e, Amount: amt})
	}
	return flows
}

// Continuous is the stateful continuous Algorithm 1 stepper on a fixed
// graph. Workers > 1 enables the goroutine-parallel round executor.
type Continuous struct {
	G       *graph.G
	Load    *load.Continuous
	Workers int

	next matrix.Vector // scratch for the round-start/next double buffer
	body func(i int)   // the round body, built once (see Step)
}

// NewContinuous creates a stepper over a copy of the initial loads.
func NewContinuous(g *graph.G, initial []float64) *Continuous {
	if len(initial) != g.N() {
		panic("diffusion: initial load length mismatch")
	}
	return &Continuous{G: g, Load: load.NewContinuous(initial)}
}

// Step advances one synchronous round of Algorithm 1.
//
// Node i's next load depends only on the round-start vector:
//
//	ℓᵢ′ = ℓᵢ − Σ_{j∼i: ℓᵢ>ℓⱼ} w_ij + Σ_{j∼i: ℓⱼ>ℓᵢ} w_ij,
//
// so each node is computed independently — this is the concurrency the
// paper's proof technique is about, and it is also what makes the parallel
// executor safe without synchronization beyond the round barrier.
func (c *Continuous) Step() {
	g, cur := c.G, c.Load.Vector()
	n := g.N()
	if c.body == nil {
		c.next = make(matrix.Vector, n)
		// The round body scans the CSR rows — one contiguous index stream —
		// instead of pointer-chasing per-node slices. Neighbour order and the
		// floating-point operation chain are identical to the slice form (the
		// CSR contract in graph.CSR), so checksums match bit-for-bit. The
		// closure is built once: the graph, the CSR arrays and the load
		// vector's backing storage are all fixed for the stepper's lifetime,
		// and a per-Step closure would put one heap allocation in the round
		// hot loop.
		off, tgt := g.CSR()
		next := c.next
		c.body = func(i int) {
			li := cur[i]
			acc := li
			// Reslicing the row once keeps the inner loop free of repeated
			// offset loads and target bounds checks.
			row := tgt[off[i]:off[i+1]]
			di := len(row)
			for _, j := range row {
				lj := cur[j]
				if li == lj {
					continue
				}
				d := di
				if dj := int(off[j+1] - off[j]); dj > d {
					d = dj
				}
				w := math.Abs(li-lj) / (4 * float64(d))
				if li > lj {
					acc -= w
				} else {
					acc += w
				}
			}
			next[i] = acc
		}
	}
	parallel.For(n, parallel.StepperWorkers(c.Workers), c.body)
	copy(cur, c.next)
}

// Potential returns Φ of the current distribution.
func (c *Continuous) Potential() float64 { return c.Load.Potential() }

// LoadVector returns the live load vector (implements sim.ContinuousState,
// the scenario engine's between-round injection hook).
func (c *Continuous) LoadVector() []float64 { return c.Load.Vector() }

// Discrete is the stateful discrete Algorithm 1 stepper.
type Discrete struct {
	G       *graph.G
	Load    *load.Discrete
	Workers int

	next []int64
	body func(i int) // the round body, built once (see Step)
}

// NewDiscrete creates a stepper over a copy of the initial token counts.
func NewDiscrete(g *graph.G, initial []int64) *Discrete {
	if len(initial) != g.N() {
		panic("diffusion: initial token length mismatch")
	}
	return &Discrete{G: g, Load: load.NewDiscrete(initial)}
}

// Step advances one synchronous round of the discrete Algorithm 1, moving
// ⌊(ℓᵢ−ℓⱼ)/(4·max(dᵢ,dⱼ))⌋ tokens across each unbalanced edge. Both
// endpoints compute the same flow from the same round-start counts, so the
// node-parallel formulation remains exact.
func (d *Discrete) Step() {
	g, cur := d.G, d.Load.Tokens()
	n := g.N()
	if d.body == nil {
		d.next = make([]int64, n)
		// Built once for the stepper's lifetime, like Continuous.Step — a
		// per-Step closure would be one heap allocation per round.
		off, tgt := g.CSR()
		next := d.next
		d.body = func(i int) {
			li := cur[i]
			acc := li
			row := tgt[off[i]:off[i+1]]
			di := len(row)
			for _, j := range row {
				lj := cur[j]
				if li == lj {
					continue
				}
				d := di
				if dj := int(off[j+1] - off[j]); dj > d {
					d = dj
				}
				w := int64(math.Abs(float64(li)-float64(lj)) / (4 * float64(d)))
				if li > lj {
					acc -= w
				} else {
					acc += w
				}
			}
			next[i] = acc
		}
	}
	parallel.For(n, parallel.StepperWorkers(d.Workers), d.body)
	copy(cur, d.next)
}

// Potential returns Φ of the current distribution.
func (d *Discrete) Potential() float64 { return d.Load.Potential() }

// LoadTokens returns the live token counts (implements sim.DiscreteState,
// the scenario engine's between-round injection hook).
func (d *Discrete) LoadTokens() []int64 { return d.Load.Tokens() }

// DiscreteThreshold returns the paper's Theorem 6 residual threshold
// 64·δ³·n/λ₂ below which the discrete analysis stops guaranteeing progress.
func DiscreteThreshold(g *graph.G, lambda2 float64) float64 {
	delta := float64(g.MaxDegree())
	return 64 * delta * delta * delta * float64(g.N()) / lambda2
}

// ContinuousBound returns the Theorem 4 round bound T = 4δ·ln(1/ε)/λ₂ for
// reducing the potential to ε·Φ(L⁰).
func ContinuousBound(g *graph.G, lambda2, eps float64) float64 {
	return 4 * float64(g.MaxDegree()) * math.Log(1/eps) / lambda2
}

// DiscreteBound returns the Theorem 6 round bound
// T = 8δ·ln(λ₂Φ⁰/(64δ³n))/λ₂ for reaching the DiscreteThreshold.
func DiscreteBound(g *graph.G, lambda2, phi0 float64) float64 {
	thr := DiscreteThreshold(g, lambda2)
	if phi0 <= thr {
		return 0
	}
	return 8 * float64(g.MaxDegree()) * math.Log(phi0/thr) / lambda2
}
