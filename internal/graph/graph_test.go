package graph

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// IsRegular reports whether every node has the same degree, and that degree.
func (g *G) IsRegular() (int, bool) {
	if g.n == 0 {
		return 0, true
	}
	d := g.deg[0]
	for _, x := range g.deg[1:] {
		if x != d {
			return 0, false
		}
	}
	return d, true
}

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder("t", 3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || g.HasEdge(0, 2) {
		t.Fatal("HasEdge wrong")
	}
	if g.Degree(1) != 2 || g.Degree(0) != 1 {
		t.Fatal("degrees wrong")
	}
}

func TestBuilderRejectsSelfLoop(t *testing.T) {
	b := NewBuilder("t", 2)
	b.AddEdge(0, 0)
	if _, err := b.Finish(); err == nil {
		t.Fatal("expected self-loop error")
	}
}

func TestBuilderRejectsOutOfRange(t *testing.T) {
	b := NewBuilder("t", 2)
	b.AddEdge(0, 5)
	if _, err := b.Finish(); err == nil {
		t.Fatal("expected range error")
	}
}

func TestBuilderDeduplicates(t *testing.T) {
	b := NewBuilder("t", 2)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0)
	g := b.MustFinish()
	if g.M() != 1 {
		t.Fatalf("m=%d, want 1", g.M())
	}
}

func TestEdgeCanonical(t *testing.T) {
	e := Edge{U: 5, V: 2}.Canonical()
	if e.U != 2 || e.V != 5 {
		t.Fatalf("canonical: %v", e)
	}
}

func TestPath(t *testing.T) {
	g := Path(5)
	if g.N() != 5 || g.M() != 4 {
		t.Fatalf("path: n=%d m=%d", g.N(), g.M())
	}
	if g.MaxDegree() != 2 || g.Degree(0) != 1 || g.Degree(4) != 1 {
		t.Fatal("path degrees wrong")
	}
	if !g.IsConnected() {
		t.Fatal("path must be connected")
	}
	if Diameter(g) != 4 {
		t.Fatalf("path diameter %d", Diameter(g))
	}
}

func TestCycle(t *testing.T) {
	g := Cycle(6)
	if g.M() != 6 {
		t.Fatalf("cycle m=%d", g.M())
	}
	if d, ok := g.IsRegular(); !ok || d != 2 {
		t.Fatal("cycle must be 2-regular")
	}
	if Diameter(g) != 3 {
		t.Fatalf("cycle(6) diameter %d", Diameter(g))
	}
}

func TestCycleTooSmallPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Cycle(2)
}

func TestComplete(t *testing.T) {
	g := Complete(5)
	if g.M() != 10 {
		t.Fatalf("K5 m=%d", g.M())
	}
	if d, ok := g.IsRegular(); !ok || d != 4 {
		t.Fatal("K5 must be 4-regular")
	}
	if Diameter(g) != 1 {
		t.Fatal("K5 diameter must be 1")
	}
}

func TestStar(t *testing.T) {
	g := Star(6)
	if g.M() != 5 || g.MaxDegree() != 5 || g.Degree(5) != 1 {
		t.Fatalf("star wrong: %v", g)
	}
}

func TestCompleteBipartite(t *testing.T) {
	g := CompleteBipartite(2, 3)
	if g.N() != 5 || g.M() != 6 {
		t.Fatalf("K(2,3): n=%d m=%d", g.N(), g.M())
	}
	if g.HasEdge(0, 1) {
		t.Fatal("edge within part")
	}
	if !g.HasEdge(0, 2) {
		t.Fatal("missing cross edge")
	}
}

func TestGridAndTorus(t *testing.T) {
	gr := Grid(3, 4)
	if gr.N() != 12 || gr.M() != 3*3+2*4 {
		t.Fatalf("grid: n=%d m=%d", gr.N(), gr.M())
	}
	to := Torus(3, 4)
	if to.N() != 12 || to.M() != 24 {
		t.Fatalf("torus: n=%d m=%d", to.N(), to.M())
	}
	if d, ok := to.IsRegular(); !ok || d != 4 {
		t.Fatal("torus must be 4-regular")
	}
}

func TestHypercube(t *testing.T) {
	g := Hypercube(4)
	if g.N() != 16 || g.M() != 32 {
		t.Fatalf("Q4: n=%d m=%d", g.N(), g.M())
	}
	if d, ok := g.IsRegular(); !ok || d != 4 {
		t.Fatal("Q4 must be 4-regular")
	}
	if Diameter(g) != 4 {
		t.Fatalf("Q4 diameter %d", Diameter(g))
	}
	if g0 := Hypercube(0); g0.N() != 1 || g0.M() != 0 {
		t.Fatal("Q0 must be the single node")
	}
}

func TestDeBruijn(t *testing.T) {
	g := DeBruijn(4)
	if g.N() != 16 {
		t.Fatalf("n=%d", g.N())
	}
	if !g.IsConnected() {
		t.Fatal("de Bruijn must be connected")
	}
	if g.MaxDegree() > 4 {
		t.Fatalf("de Bruijn max degree %d > 4", g.MaxDegree())
	}
}

func TestBinaryTree(t *testing.T) {
	g := BinaryTree(4)
	if g.N() != 15 || g.M() != 14 {
		t.Fatalf("tree: n=%d m=%d", g.N(), g.M())
	}
	if !g.IsConnected() {
		t.Fatal("tree must be connected")
	}
	if g.MaxDegree() != 3 {
		t.Fatalf("tree max degree %d", g.MaxDegree())
	}
}

func TestPetersen(t *testing.T) {
	g := Petersen()
	if g.N() != 10 || g.M() != 15 {
		t.Fatalf("petersen: n=%d m=%d", g.N(), g.M())
	}
	if d, ok := g.IsRegular(); !ok || d != 3 {
		t.Fatal("petersen must be 3-regular")
	}
	if Diameter(g) != 2 {
		t.Fatalf("petersen diameter %d", Diameter(g))
	}
}

func TestBarbellAndLollipop(t *testing.T) {
	b := Barbell(4)
	if b.N() != 8 || b.M() != 2*6+1 {
		t.Fatalf("barbell: n=%d m=%d", b.N(), b.M())
	}
	if !b.IsConnected() {
		t.Fatal("barbell must be connected")
	}
	l := Lollipop(4, 3)
	if l.N() != 7 || l.M() != 6+3 {
		t.Fatalf("lollipop: n=%d m=%d", l.N(), l.M())
	}
	if !l.IsConnected() {
		t.Fatal("lollipop must be connected")
	}
}

func TestRandomRegular(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := RandomRegular(20, 4, rng)
	if d, ok := g.IsRegular(); !ok || d != 4 {
		t.Fatalf("not 4-regular")
	}
	if !g.IsConnected() {
		t.Fatal("must be connected by construction")
	}
}

func TestRandomRegularInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for odd n·d")
		}
	}()
	RandomRegular(5, 3, rand.New(rand.NewSource(1)))
}

func TestErdosRenyiExtremes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g0 := ErdosRenyi(10, 0, rng)
	if g0.M() != 0 {
		t.Fatal("G(n,0) must have no edges")
	}
	g1 := ErdosRenyi(10, 1, rng)
	if g1.M() != 45 {
		t.Fatalf("G(10,1) m=%d", g1.M())
	}
}

func TestLaplacianStructure(t *testing.T) {
	g := Cycle(5)
	l := g.Laplacian()
	if !l.IsSymmetric(0) {
		t.Fatal("Laplacian must be symmetric")
	}
	for i, s := range l.RowSums() {
		if s != 0 {
			t.Fatalf("Laplacian row %d sums to %v", i, s)
		}
	}
	if l.At(0, 0) != 2 || l.At(0, 1) != -1 {
		t.Fatal("Laplacian entries wrong")
	}
}

func TestSubgraph(t *testing.T) {
	g := Complete(5)
	sub := g.Subgraph("no-zero", func(e Edge) bool { return e.U != 0 })
	if sub.N() != 5 {
		t.Fatal("subgraph must keep node set")
	}
	if sub.M() != 6 {
		t.Fatalf("subgraph m=%d, want 6", sub.M())
	}
	if sub.Degree(0) != 0 {
		t.Fatal("node 0 should be isolated")
	}
}

func TestIsConnectedEdgeCases(t *testing.T) {
	if !NewBuilder("empty", 0).MustFinish().IsConnected() {
		t.Fatal("empty graph connected by convention")
	}
	if !NewBuilder("one", 1).MustFinish().IsConnected() {
		t.Fatal("single node connected")
	}
	if NewBuilder("two", 2).MustFinish().IsConnected() {
		t.Fatal("two isolated nodes are disconnected")
	}
}

func TestDiameterDisconnected(t *testing.T) {
	if Diameter(NewBuilder("two", 2).MustFinish()) != -1 {
		t.Fatal("disconnected diameter must be -1")
	}
}

// Property: handshake lemma Σdeg = 2m for random graphs.
func TestHandshakeProperty(t *testing.T) {
	f := func(seed uint8, pRaw uint8) bool {
		r := rand.New(rand.NewSource(int64(seed)))
		n := 2 + r.Intn(20)
		p := float64(pRaw) / 255
		g := ErdosRenyi(n, p, r)
		sum := 0
		for i := 0; i < n; i++ {
			sum += g.Degree(i)
		}
		return sum == 2*g.M()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: neighbour lists are consistent with the edge list.
func TestNeighborConsistencyProperty(t *testing.T) {
	f := func(seed uint8) bool {
		r := rand.New(rand.NewSource(int64(seed)))
		n := 2 + r.Intn(15)
		g := ErdosRenyi(n, 0.4, r)
		count := 0
		for i := 0; i < n; i++ {
			for _, j := range g.Neighbors(i) {
				if !g.HasEdge(i, j) {
					return false
				}
				count++
			}
		}
		return count == 2*g.M()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestFingerprint(t *testing.T) {
	// Stable across calls and across identically-built instances.
	a, b := Cycle(32), Cycle(32)
	if a.Fingerprint() != a.Fingerprint() {
		t.Fatal("fingerprint not stable across calls")
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical constructions disagree")
	}
	// Sensitive to structure: same name, different edges must differ.
	b1 := NewBuilder("fp", 4)
	b1.AddEdge(0, 1)
	b1.AddEdge(2, 3)
	b2 := NewBuilder("fp", 4)
	b2.AddEdge(0, 2)
	b2.AddEdge(1, 3)
	if b1.MustFinish().Fingerprint() == b2.MustFinish().Fingerprint() {
		t.Fatal("different edge sets share a fingerprint")
	}
	// Sensitive to name: same structure, different name must differ (names
	// encode construction parameters the edge list may not reach, and the
	// speccache key must separate them).
	if Cycle(32).Fingerprint() == Cycle(32).Subgraph("renamed", func(Edge) bool { return true }).Fingerprint() {
		t.Fatal("renamed graph shares a fingerprint")
	}
	// Concurrent first calls are safe (G is lazily fingerprinted).
	g := Torus(8, 8)
	var wg sync.WaitGroup
	got := make([]uint64, 16)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = g.Fingerprint()
		}(i)
	}
	wg.Wait()
	for _, v := range got {
		if v != got[0] {
			t.Fatal("concurrent fingerprint calls disagree")
		}
	}
}
