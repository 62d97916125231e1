// Package graph provides the immutable undirected graphs on which the load
// balancing algorithms run, together with the standard topology families the
// diffusion literature evaluates on (path, cycle, torus, hypercube,
// de Bruijn, expanders, …), their Laplacian/adjacency matrices, and
// structural measures (degree, expansion, connectivity).
//
// Graphs are simple (no self loops, no multi-edges) and immutable once
// built; every algorithm in this repository treats the topology as
// read-only, which is what makes the goroutine-parallel round executor in
// internal/sim safe without locks.
package graph

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"sync"

	"repro/internal/matrix"
)

// Edge is an undirected edge between two node indices with U < V.
type Edge struct {
	U, V int
}

// Canonical returns the edge with endpoints ordered so that U < V.
func (e Edge) Canonical() Edge {
	if e.U > e.V {
		return Edge{U: e.V, V: e.U}
	}
	return e
}

// G is an immutable simple undirected graph with nodes 0..n−1.
//
// Besides the per-node neighbour slices, every graph carries a flat CSR
// (compressed sparse row) view of its adjacency — a single offsets array and
// a single targets array — built once in Finish. The CSR view is the layout
// the per-round stepper hot loops scan: one contiguous stream instead of n
// pointer-chased slices, which is what keeps a million-node round
// cache-friendly. The neighbour slices are row views into the same targets
// array, so the two representations share one backing allocation. See CSR
// for the layout contract.
type G struct {
	name  string
	n     int
	adj   [][]int // sorted neighbour lists (views into csrTgt)
	edges []Edge  // canonical, sorted lexicographically
	deg   []int

	csrOff []int // len n+1; node i's neighbours at csrTgt[csrOff[i]:csrOff[i+1]]
	csrTgt []int // len 2m; ascending within each node's range

	fpOnce sync.Once
	fp     uint64
}

// Builder accumulates edges and produces an immutable G. Self loops and
// out-of-range endpoints are rejected at Finish time; duplicate AddEdge
// calls for the same undirected edge collapse to one edge.
//
// Edges are kept as packed (u,v) keys in an append-only slice and
// sort+deduplicated once in Finish — O(m log m) with one allocation, rather
// than the hash-map-per-edge cost that dominated million-edge builds.
type Builder struct {
	name   string
	n      int
	packed []uint64 // canonical edges as U<<32|V
	err    error
}

// NewBuilder starts a builder for a graph with n nodes.
func NewBuilder(name string, n int) *Builder {
	b := &Builder{name: name, n: n}
	if n < 0 {
		b.err = errors.New("graph: negative node count")
	}
	return b
}

// AddEdge records the undirected edge {u, v}. Errors (out-of-range
// endpoints, self loops) are sticky and reported by Finish.
func (b *Builder) AddEdge(u, v int) {
	if b.err != nil {
		return
	}
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		b.err = fmt.Errorf("graph: edge (%d,%d) out of range n=%d", u, v, b.n)
		return
	}
	if u == v {
		b.err = fmt.Errorf("graph: self loop at node %d", u)
		return
	}
	if u > v {
		u, v = v, u
	}
	b.packed = append(b.packed, uint64(u)<<32|uint64(v))
}

// Finish validates and freezes the graph.
func (b *Builder) Finish() (*G, error) {
	if b.err != nil {
		return nil, b.err
	}
	slices.Sort(b.packed)
	b.packed = slices.Compact(b.packed)
	m := len(b.packed)
	g := &G{name: b.name, n: b.n, deg: make([]int, b.n)}
	g.edges = make([]Edge, m)
	for k, p := range b.packed {
		u, v := int(p>>32), int(uint32(p))
		g.edges[k] = Edge{U: u, V: v}
		g.deg[u]++
		g.deg[v]++
	}

	// CSR offsets by prefix sum, then a single placement pass. Iterating the
	// sorted edge list places each node's smaller neighbours (from edges
	// where it is V, ascending by U) before its larger ones (from its own U
	// block, ascending by V), so every row comes out ascending without a
	// per-node sort.
	g.csrOff = make([]int, b.n+1)
	total := 0
	for i, d := range g.deg {
		g.csrOff[i] = total
		total += d
	}
	g.csrOff[b.n] = total
	g.csrTgt = make([]int, total)
	cursor := make([]int, b.n)
	copy(cursor, g.csrOff[:b.n])
	for _, e := range g.edges {
		g.csrTgt[cursor[e.U]] = e.V
		cursor[e.U]++
		g.csrTgt[cursor[e.V]] = e.U
		cursor[e.V]++
	}

	// The neighbour slices are capped row views into the CSR targets, so the
	// slice API shares the one backing allocation instead of copying it.
	g.adj = make([][]int, b.n)
	for i := 0; i < b.n; i++ {
		g.adj[i] = g.csrTgt[g.csrOff[i]:g.csrOff[i+1]:g.csrOff[i+1]]
	}
	return g, nil
}

// MustFinish is Finish that panics on error; used by the topology
// constructors whose edge sets are correct by construction.
func (b *Builder) MustFinish() *G {
	g, err := b.Finish()
	if err != nil {
		panic(err)
	}
	return g
}

// Name returns the human-readable topology name, e.g. "torus(8x8)".
func (g *G) Name() string { return g.name }

// N returns the number of nodes.
func (g *G) N() int { return g.n }

// M returns the number of edges.
func (g *G) M() int { return len(g.edges) }

// Edges returns the canonical edge list. Callers must not mutate it.
func (g *G) Edges() []Edge { return g.edges }

// Neighbors returns the sorted neighbour list of node i. Callers must not
// mutate it.
func (g *G) Neighbors(i int) []int { return g.adj[i] }

// CSR returns the flat compressed-sparse-row adjacency view: node i's
// neighbours are targets[offsets[i]:offsets[i+1]], ascending, and
// offsets[i+1]−offsets[i] equals Degree(i). Both slices are shared with the
// graph and must not be mutated.
//
// Layout contract (steppers depend on every clause):
//   - offsets has length N()+1 with offsets[0] = 0 and offsets[N()] = 2·M();
//   - each row lists the same neighbours, in the same ascending order, as
//     Neighbors(i) — a loop converted from Neighbors to CSR therefore
//     replays the exact serial IEEE operation chain and stays bit-identical;
//   - Neighbors(i) is a capped view of targets[offsets[i]:offsets[i+1]], so
//     the two representations alias one backing array.
func (g *G) CSR() (offsets, targets []int) { return g.csrOff, g.csrTgt }

// Degree returns the degree of node i.
func (g *G) Degree(i int) int { return g.deg[i] }

// MaxDegree returns δ = maxᵢ deg(i); 0 for the empty graph.
func (g *G) MaxDegree() int {
	max := 0
	for _, d := range g.deg {
		if d > max {
			max = d
		}
	}
	return max
}

// Fingerprint returns a stable 64-bit structural hash of the graph: its
// name, node count and full edge set. Two graphs with the same fingerprint
// are interchangeable for caching purposes — internal/speccache keys its
// memoized spectral quantities (λ₂, γ, optimal flows) on it, so randomized
// families with colliding names but different edge sets never share an
// entry. Computed lazily, exactly once, and safe for concurrent use (G is
// immutable after Finish).
func (g *G) Fingerprint() uint64 {
	g.fpOnce.Do(func() {
		h := fnv.New64a()
		h.Write([]byte(g.name))
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(g.n))
		h.Write(buf[:])
		for _, e := range g.edges {
			binary.LittleEndian.PutUint32(buf[:4], uint32(e.U))
			binary.LittleEndian.PutUint32(buf[4:], uint32(e.V))
			h.Write(buf[:])
		}
		g.fp = h.Sum64()
	})
	return g.fp
}

// HasEdge reports whether {u, v} is an edge.
func (g *G) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n || v < 0 || v >= g.n || u == v {
		return false
	}
	a := g.adj[u]
	k := sort.SearchInts(a, v)
	return k < len(a) && a[k] == v
}

// IsConnected reports whether the graph is connected. The empty graph and
// the single node are connected by convention.
func (g *G) IsConnected() bool {
	if g.n <= 1 {
		return true
	}
	seen := make([]bool, g.n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range g.adj[u] {
			if !seen[v] {
				seen[v] = true
				count++
				stack = append(stack, v)
			}
		}
	}
	return count == g.n
}

// Laplacian returns the n×n Laplacian L = D − A, where D is the diagonal
// degree matrix. L is symmetric positive semidefinite; its second-smallest
// eigenvalue λ₂ (the algebraic connectivity) drives every convergence bound
// in the paper.
func (g *G) Laplacian() *matrix.Dense {
	l := matrix.NewDense(g.n, g.n)
	for i, d := range g.deg {
		l.Set(i, i, float64(d))
	}
	for _, e := range g.edges {
		l.Set(e.U, e.V, -1)
		l.Set(e.V, e.U, -1)
	}
	return l
}

// Subgraph returns the graph on the same node set containing only the edges
// for which keep returns true. Used by the dynamic-network generators.
func (g *G) Subgraph(name string, keep func(Edge) bool) *G {
	b := NewBuilder(name, g.n)
	for _, e := range g.edges {
		if keep(e) {
			b.AddEdge(e.U, e.V)
		}
	}
	return b.MustFinish()
}

// String implements fmt.Stringer.
func (g *G) String() string {
	return fmt.Sprintf("%s{n=%d m=%d δ=%d}", g.name, g.n, g.M(), g.MaxDegree())
}
