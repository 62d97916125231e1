// Package flow computes balancing flows and the flow-quality metrics used
// to compare schemes, following the framework of Diekmann, Frommer and
// Monien [7] that the paper's related-work section builds on.
//
// A balancing flow assigns to each edge a signed amount such that routing
// it moves the load vector to the balanced state: the flow's divergence at
// node i equals ℓᵢ − ℓ̄. Among all balancing flows the ℓ₂-minimal one is
// the "potential flow" f(u,v) = x_u − x_v where L·x = ℓ − ℓ̄·1 — and a
// classical result of [7] is that every proper diffusion scheme (first
// order, second order, OPS, and the paper's Algorithm 1 in the continuous
// case) routes exactly this flow in the limit. The E15 experiment verifies
// that property empirically, which is a strong end-to-end correctness check
// on the whole stack (stepper + eigen/CG solver at once).
package flow

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/matrix"
	"repro/internal/spectral"
)

// EdgeFlow is a flow vector indexed like g.Edges(): entry k is the signed
// amount routed across edge k from Edge.U to Edge.V (negative = reverse).
type EdgeFlow struct {
	G      *graph.G
	Values []float64
}

// NewEdgeFlow returns a zero flow on g.
func NewEdgeFlow(g *graph.G) *EdgeFlow {
	return &EdgeFlow{G: g, Values: make([]float64, g.M())}
}

// Add accumulates amount (U→V positive) on edge index k.
func (f *EdgeFlow) Add(k int, amount float64) { f.Values[k] += amount }

// L2 returns ‖f‖₂.
func (f *EdgeFlow) L2() float64 { return matrix.Vector(f.Values).Norm2() }

// L1 returns Σ|f_e| — the total load moved across edges.
func (f *EdgeFlow) L1() float64 { return matrix.Vector(f.Values).Norm1() }

// MaxEdge returns max|f_e| — the most congested edge.
func (f *EdgeFlow) MaxEdge() float64 { return matrix.Vector(f.Values).NormInf() }

// Sub returns f − g as a new flow (same graph required).
func (f *EdgeFlow) Sub(other *EdgeFlow) (*EdgeFlow, error) {
	if f.G != other.G {
		return nil, fmt.Errorf("flow: Sub across different graphs")
	}
	out := NewEdgeFlow(f.G)
	for k := range out.Values {
		out.Values[k] = f.Values[k] - other.Values[k]
	}
	return out, nil
}

// Optimal computes the ℓ₂-minimal balancing flow for load vector l on g:
// solve L·x = (l − ℓ̄·1) and set f(u,v) = x_u − x_v per edge.
func Optimal(g *graph.G, l matrix.Vector) (*EdgeFlow, error) {
	if len(l) != g.N() {
		return nil, fmt.Errorf("flow: load length %d for n=%d", len(l), g.N())
	}
	d := l.Clone()
	mean := d.Mean()
	for i := range d {
		d[i] -= mean
	}
	x, err := spectral.SolveLaplacian(g, d)
	if err != nil {
		return nil, err
	}
	f := NewEdgeFlow(g)
	for k, e := range g.Edges() {
		f.Values[k] = x[e.U] - x[e.V]
	}
	return f, nil
}

// Accumulator records the cumulative per-edge flow a running scheme routes.
// Wrap a stepper's per-round flows with Record to build the realized
// aggregate flow, then compare against Optimal.
type Accumulator struct {
	Flow *EdgeFlow
	// edgeIndex maps a canonical edge to its index in g.Edges().
	edgeIndex map[graph.Edge]int
}

// NewAccumulator prepares an accumulator for g.
func NewAccumulator(g *graph.G) *Accumulator {
	idx := make(map[graph.Edge]int, g.M())
	for k, e := range g.Edges() {
		idx[e] = k
	}
	return &Accumulator{Flow: NewEdgeFlow(g), edgeIndex: idx}
}

// Record adds a transfer of amount from node u to node v (must be an edge
// of the underlying graph).
func (a *Accumulator) Record(u, v int, amount float64) error {
	e := graph.Edge{U: u, V: v}.Canonical()
	k, ok := a.edgeIndex[e]
	if !ok {
		return fmt.Errorf("flow: (%d,%d) is not an edge", u, v)
	}
	if e.U == u {
		a.Flow.Add(k, amount)
	} else {
		a.Flow.Add(k, -amount)
	}
	return nil
}
