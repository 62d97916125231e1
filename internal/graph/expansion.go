package graph

import (
	"math"
)

// EdgeExpansion computes the exact edge expansion
//
//	α = min over ∅⊂S⊂V of |E(S, S̄)| / min(|S|, |S̄|)
//
// by enumerating all 2^(n−1)−1 proper cuts. It is exponential in n and
// guarded to n ≤ MaxExactExpansionN; larger graphs should use
// ExpansionBounds, which brackets α via Cheeger's inequality.
func EdgeExpansion(g *G) float64 {
	n := g.N()
	if n > MaxExactExpansionN {
		panic("graph: EdgeExpansion limited to small graphs; use ExpansionBounds")
	}
	if n < 2 {
		return 0
	}
	best := math.Inf(1)
	// Fix node 0 on the S̄ side to halve the enumeration: every proper cut
	// is represented by the subset mask over nodes 1..n−1 that forms S.
	total := 1 << uint(n-1)
	for mask := 1; mask < total; mask++ {
		inS := func(v int) bool { return v > 0 && mask&(1<<uint(v-1)) != 0 }
		size := 0
		for v := 1; v < n; v++ {
			if inS(v) {
				size++
			}
		}
		cut := 0
		for _, e := range g.Edges() {
			if inS(e.U) != inS(e.V) {
				cut++
			}
		}
		denom := size
		if n-size < denom {
			denom = n - size
		}
		if denom == 0 {
			continue
		}
		if r := float64(cut) / float64(denom); r < best {
			best = r
		}
	}
	return best
}

// MaxExactExpansionN bounds the graph size accepted by EdgeExpansion
// (2^(n−1) cut enumeration).
const MaxExactExpansionN = 22

// ExpansionBounds returns lower and upper bounds on the edge expansion α
// derived from the algebraic connectivity λ₂ via the discrete Cheeger
// inequality for the (unnormalized) Laplacian:
//
//	λ₂/2 ≤ h(G) ≤ sqrt(2·δ·λ₂),
//
// where h is the conductance-style edge expansion with volume replaced by
// set size (the variant used in [12] and this paper). λ₂ must be supplied
// by the caller (see internal/spectral).
func ExpansionBounds(g *G, lambda2 float64) (lo, hi float64) {
	delta := float64(g.MaxDegree())
	lo = lambda2 / 2
	hi = math.Sqrt(2 * delta * lambda2)
	return lo, hi
}

// Diameter returns the graph diameter (longest shortest path) via BFS from
// every node, or −1 if the graph is disconnected or empty.
func Diameter(g *G) int {
	n := g.N()
	if n == 0 {
		return -1
	}
	maxDist := 0
	dist := make([]int, n)
	queue := make([]int, 0, n)
	for s := 0; s < n; s++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[s] = 0
		queue = queue[:0]
		queue = append(queue, s)
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, v := range g.Neighbors(u) {
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
				}
			}
		}
		for _, d := range dist {
			if d < 0 {
				return -1
			}
			if d > maxDist {
				maxDist = d
			}
		}
	}
	return maxDist
}
