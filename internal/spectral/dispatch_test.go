package spectral

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/topoparse"
)

// registryGraphs builds every topoparse topology at a small size, so the
// closed-form-vs-dense properties sweep the whole registry rather than a
// hand-picked list that silently goes stale when a family is added.
func registryGraphs(t *testing.T, n int) map[string]*graph.G {
	t.Helper()
	out := make(map[string]*graph.G, len(topoparse.Names()))
	for _, name := range topoparse.Names() {
		g, err := topoparse.Build(name, n, 1)
		if err != nil {
			t.Fatalf("build %s(%d): %v", name, n, err)
		}
		out[name] = g
	}
	return out
}

// TestClosedFormLambda2MatchesDense is the dispatch-safety property: for
// every registry topology whose λ₂ the closed-form layer claims to know,
// the claimed value must match the dense Laplacian spectrum to 1e-9. A
// wrong formula — or a name-recognition bug matching the wrong family —
// fails here before it can poison every large-n solve.
func TestClosedFormLambda2MatchesDense(t *testing.T) {
	covered := 0
	for name, g := range registryGraphs(t, 24) {
		l2, ok := graph.KnownLambda2(g)
		if !ok {
			continue
		}
		covered++
		vals, err := LaplacianSpectrum(g)
		if err != nil {
			t.Fatalf("%s: dense spectrum: %v", name, err)
		}
		if diff := math.Abs(l2 - vals[1]); diff > 1e-9 {
			t.Errorf("%s (%s): closed-form λ₂ = %.15g, dense = %.15g (diff %.2g)", name, g.Name(), l2, vals[1], diff)
		}
	}
	// The structured families (path, cycle, grid, torus, hypercube,
	// complete, star, petersen at least) must all take the closed form —
	// fewer means the fast path quietly stopped firing.
	if covered < 8 {
		t.Fatalf("only %d registry topologies hit the closed form, want ≥ 8", covered)
	}
}

// TestClosedFormLambdaMaxMatchesDense is the same property for the top of
// the spectrum, which the closed-form γ depends on just as much as λ₂.
func TestClosedFormLambdaMaxMatchesDense(t *testing.T) {
	covered := 0
	for name, g := range registryGraphs(t, 24) {
		lmax, ok := graph.KnownLambdaMax(g)
		if !ok {
			continue
		}
		covered++
		vals, err := LaplacianSpectrum(g)
		if err != nil {
			t.Fatalf("%s: dense spectrum: %v", name, err)
		}
		if diff := math.Abs(lmax - vals[len(vals)-1]); diff > 1e-9 {
			t.Errorf("%s (%s): closed-form λ_max = %.15g, dense = %.15g (diff %.2g)", name, g.Name(), lmax, vals[len(vals)-1], diff)
		}
	}
	if covered < 8 {
		t.Fatalf("only %d registry topologies hit the λ_max closed form, want ≥ 8", covered)
	}
}

// TestGammaOfMatchesDenseEverywhere checks the dispatched γ — closed form
// where recognized, dense elsewhere — against the direct dense eigensolve
// of the materialized diffusion matrix for every registry topology.
func TestGammaOfMatchesDenseEverywhere(t *testing.T) {
	for name, g := range registryGraphs(t, 24) {
		got, err := GammaOf(g)
		if err != nil {
			t.Fatalf("%s: GammaOf: %v", name, err)
		}
		want, err := Gamma(DiffusionMatrix(g))
		if err != nil {
			t.Fatalf("%s: dense γ: %v", name, err)
		}
		if diff := math.Abs(got - want); diff > 1e-9 {
			t.Errorf("%s (%s): GammaOf = %.15g, dense γ = %.15g (diff %.2g)", name, g.Name(), got, want, diff)
		}
	}
}

// TestPaperGammaOfMatchesDenseEverywhere is the same for the paper's
// diffusion matrix with edge weights 1/(4·max(dᵢ,dⱼ)), whose closed form
// only applies when that weight is uniform — the dispatch must detect
// exactly when it is.
func TestPaperGammaOfMatchesDenseEverywhere(t *testing.T) {
	for name, g := range registryGraphs(t, 24) {
		got, err := PaperGammaOf(g)
		if err != nil {
			t.Fatalf("%s: PaperGammaOf: %v", name, err)
		}
		want, err := Gamma(PaperDiffusionMatrix(g))
		if err != nil {
			t.Fatalf("%s: dense paper γ: %v", name, err)
		}
		if diff := math.Abs(got - want); diff > 1e-9 {
			t.Errorf("%s (%s): PaperGammaOf = %.15g, dense = %.15g (diff %.2g)", name, g.Name(), got, want, diff)
		}
	}
}

// TestLanczosMatchesDenseOnUnstructuredGraphs validates the implicit solver
// on the graphs it will actually serve at scale: de Bruijn and seeded
// random-regular graphs, which have no closed form. Both ends of the
// spectrum must agree with the dense solve.
func TestLanczosMatchesDenseOnUnstructuredGraphs(t *testing.T) {
	cases := []*graph.G{
		graph.DeBruijn(5),
		graph.DeBruijn(7),
		graph.RandomRegular(50, 4, rand.New(rand.NewSource(1))),
		graph.RandomRegular(120, 4, rand.New(rand.NewSource(2))),
	}
	for _, g := range cases {
		vals, err := LaplacianSpectrum(g)
		if err != nil {
			t.Fatalf("%s: dense spectrum: %v", g.Name(), err)
		}
		l2, lmax, ok, err := LaplacianExtremal(g, 1)
		if err != nil {
			t.Fatalf("%s: Lanczos: %v", g.Name(), err)
		}
		if !ok {
			t.Fatalf("%s: Lanczos did not converge", g.Name())
		}
		if diff := math.Abs(l2 - vals[1]); diff > 1e-8 {
			t.Errorf("%s: Lanczos λ₂ = %.15g, dense = %.15g (diff %.2g)", g.Name(), l2, vals[1], diff)
		}
		if diff := math.Abs(lmax - vals[len(vals)-1]); diff > 1e-8 {
			t.Errorf("%s: Lanczos λ_max = %.15g, dense = %.15g (diff %.2g)", g.Name(), lmax, vals[len(vals)-1], diff)
		}
	}
}

// TestSolveCountersTrackDispatch pins the path each graph class takes:
// recognized families take the closed form at any size, unrecognized small
// graphs take the dense solver, and unrecognized graphs beyond denseCutoff
// take Lanczos — with the counters recording each. The counters are
// process-wide and only ever grow, so each solve is read as a delta.
func TestSolveCountersTrackDispatch(t *testing.T) {
	solve := func(g *graph.G) SolveCounts {
		before := SolveStats()
		if _, err := Lambda2(g); err != nil {
			t.Fatal(err)
		}
		after := SolveStats()
		return SolveCounts{
			ClosedForm:   after.ClosedForm - before.ClosedForm,
			Dense:        after.Dense - before.Dense,
			Lanczos:      after.Lanczos - before.Lanczos,
			InversePower: after.InversePower - before.InversePower,
		}
	}
	if s := solve(graph.Hypercube(12)); s != (SolveCounts{ClosedForm: 1}) { // n=4096 > denseCutoff, still closed form
		t.Fatalf("hypercube(12): counters %+v, want exactly one closed-form solve", s)
	}
	if s := solve(graph.DeBruijn(5)); s != (SolveCounts{Dense: 1}) { // n=32 ≤ denseCutoff
		t.Fatalf("debruijn(5): counters %+v, want exactly one dense solve", s)
	}
	// n=1024 > denseCutoff, no closed form
	if s := solve(graph.DeBruijn(10)); s.Dense != 0 || s.ClosedForm != 0 || s.Lanczos+s.InversePower != 1 {
		t.Fatalf("debruijn(10): counters %+v, want one iterative solve and no dense", s)
	}
}
