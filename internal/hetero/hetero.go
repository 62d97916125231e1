// Package hetero implements diffusion load balancing on heterogeneous
// networks after Elsässer, Monien and Preis [9], which the paper's
// related-work section cites as the heterogeneous extension of its model:
// every node i has a speed cᵢ > 0, and the fair ("balanced") state gives
// node i load proportional to its speed, ℓᵢ* = cᵢ·(Σℓ)/(Σc).
//
// The scheme generalizes Algorithm 1 by comparing *normalized* loads
// ℓᵢ/cᵢ: across every edge (i, j) the heavier-per-speed endpoint sends
//
//	w_ij = (ℓᵢ/cᵢ − ℓⱼ/cⱼ) · min(cᵢ, cⱼ) / (4·max(dᵢ, dⱼ))
//
// which reduces exactly to Algorithm 1 when all speeds are 1, conserves
// total load, and strictly decreases the speed-weighted potential
// Φ_c(L) = Σᵢ cᵢ·(ℓᵢ/cᵢ − ω)², ω = Σℓ/Σc.
package hetero

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/load"
	"repro/internal/matrix"
)

// Continuous is the heterogeneous continuous diffusion stepper.
type Continuous struct {
	G      *graph.G
	Load   *load.Continuous
	Speeds []float64

	next matrix.Vector
}

// NewContinuous validates the speeds (all > 0, one per node) and wraps a
// copy of the initial loads.
func NewContinuous(g *graph.G, initial, speeds []float64) (*Continuous, error) {
	if len(initial) != g.N() || len(speeds) != g.N() {
		return nil, fmt.Errorf("hetero: lengths loads=%d speeds=%d for n=%d", len(initial), len(speeds), g.N())
	}
	for i, c := range speeds {
		if !(c > 0) || math.IsInf(c, 0) {
			return nil, fmt.Errorf("hetero: invalid speed %v at node %d", c, i)
		}
	}
	sp := append([]float64(nil), speeds...)
	return &Continuous{G: g, Load: load.NewContinuous(initial), Speeds: sp}, nil
}

// EdgeTransfer returns the signed amount the scheme moves across (i, j)
// for round-start loads li, lj: positive means i sends to j.
func (h *Continuous) EdgeTransfer(i, j int, li, lj float64) float64 {
	ci, cj := h.Speeds[i], h.Speeds[j]
	diff := li/ci - lj/cj
	if diff == 0 {
		return 0
	}
	cmin := ci
	if cj < cmin {
		cmin = cj
	}
	di, dj := h.G.Degree(i), h.G.Degree(j)
	if dj > di {
		di = dj
	}
	return diff * cmin / (4 * float64(di))
}

// Step advances one synchronous round. Like Algorithm 1, each node's next
// load is a function of the round-start vector only.
func (h *Continuous) Step() {
	g, cur := h.G, h.Load.Vector()
	n := g.N()
	if h.next == nil {
		h.next = make(matrix.Vector, n)
	}
	for i := 0; i < n; i++ {
		acc := cur[i]
		for _, j := range g.Neighbors(i) {
			acc -= h.EdgeTransfer(i, j, cur[i], cur[j])
		}
		h.next[i] = acc
	}
	copy(cur, h.next)
}

// Omega returns the fair per-speed share ω = Σℓ/Σc.
func (h *Continuous) Omega() float64 {
	var sumC float64
	for _, c := range h.Speeds {
		sumC += c
	}
	return h.Load.Total() / sumC
}

// Potential returns the speed-weighted potential Φ_c = Σ cᵢ(ℓᵢ/cᵢ − ω)².
func (h *Continuous) Potential() float64 {
	omega := h.Omega()
	var s float64
	for i, c := range h.Speeds {
		d := h.Load.At(i)/c - omega
		s += c * d * d
	}
	return s
}

// MaxRelativeDeviation returns maxᵢ |ℓᵢ/cᵢ − ω| / ω (0 when ω = 0) — the
// per-speed analogue of the discrepancy.
func (h *Continuous) MaxRelativeDeviation() float64 {
	omega := h.Omega()
	if omega == 0 {
		return 0
	}
	var m float64
	for i, c := range h.Speeds {
		if d := math.Abs(h.Load.At(i)/c-omega) / omega; d > m {
			m = d
		}
	}
	return m
}
