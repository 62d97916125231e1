package spectral

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/graph"
)

// Solve-path accounting. Every λ₂/λ_max/γ/γ_P computation records which
// solver actually ran, so callers (speccache stats, the large-n smoke gate
// in CI) can assert that the dense O(n³) pipeline is never invoked on
// million-node graphs.

// SolveCounts is a snapshot of how many spectral solves each path served
// since process start. The counters only grow; callers that want the solves
// of one computation take a snapshot before and after it.
type SolveCounts struct {
	ClosedForm   uint64 // analytic formula from internal/graph/spectra.go
	Dense        uint64 // Householder + implicit QL on the materialized matrix
	Lanczos      uint64 // implicit CSR Lanczos, residual gate met
	InversePower uint64 // CG-based inverse power (Lanczos fallback)
}

var (
	solveClosedForm   atomic.Uint64
	solveDense        atomic.Uint64
	solveLanczos      atomic.Uint64
	solveInversePower atomic.Uint64
)

// SolveStats returns the current solve-path counters.
func SolveStats() SolveCounts {
	return SolveCounts{
		ClosedForm:   solveClosedForm.Load(),
		Dense:        solveDense.Load(),
		Lanczos:      solveLanczos.Load(),
		InversePower: solveInversePower.Load(),
	}
}

// gammaFromLaplacian evaluates γ of a diffusion matrix of the exact form
// M = I − c·L from the extremal nonzero Laplacian eigenvalues: in the
// complement of the stationary all-ones vector the eigenvalues of M are
// 1 − c·λ for λ over the nonzero Laplacian spectrum, so the second-largest
// magnitude is max(|1 − c·λ₂|, |1 − c·λ_max|).
func gammaFromLaplacian(c, lambda2, lambdaMax float64) float64 {
	g := math.Abs(1 - c*lambda2)
	if a := math.Abs(1 - c*lambdaMax); a > g {
		g = a
	}
	return g
}

// LambdaMaxOf returns the largest Laplacian eigenvalue of g, routed the
// same way as Lambda2: closed form, then dense below the cutoff, then
// implicit Lanczos. The top of the spectrum converges fast under Lanczos,
// so the unconverged Ritz estimate is still returned (it approaches λ_max
// from below) rather than failing.
func LambdaMaxOf(g *graph.G) (float64, error) {
	n := g.N()
	if n < 1 {
		return 0, fmt.Errorf("spectral: λ_max undefined for the empty graph")
	}
	if lm, ok := graph.KnownLambdaMax(g); ok {
		solveClosedForm.Add(1)
		return lm, nil
	}
	if n <= denseCutoff {
		solveDense.Add(1)
		vals, err := EigenvaluesSym(g.Laplacian())
		if err != nil {
			return 0, err
		}
		return vals[n-1], nil
	}
	_, hi, _, err := ExtremalEigs(n, LaplacianOperator(g), nil, 1)
	if err != nil {
		return 0, err
	}
	solveLanczos.Add(1)
	return hi, nil
}

// GammaOf returns γ — the second-largest eigenvalue magnitude — of
// Cybenko's uniform diffusion matrix M = I − L/(δ+1) for g, without
// materializing M for large graphs. Routing: closed form where the
// Laplacian extremes are known analytically (M = I − αL exactly, for every
// graph), dense below the cutoff, implicit Lanczos above it, and on
// non-convergence the exact M = I − αL identity with λ₂ from the CG-based
// inverse-power path.
func GammaOf(g *graph.G) (float64, error) {
	n := g.N()
	if n < 2 {
		return 0, fmt.Errorf("spectral: γ undefined for n=%d", n)
	}
	alpha := 1 / float64(g.MaxDegree()+1)
	if l2, ok := graph.KnownLambda2(g); ok {
		if lm, ok2 := graph.KnownLambdaMax(g); ok2 {
			solveClosedForm.Add(1)
			return gammaFromLaplacian(alpha, l2, lm), nil
		}
	}
	if n <= denseCutoff {
		solveDense.Add(1)
		return Gamma(DiffusionMatrix(g))
	}
	gm, ok, err := GammaLanczos(g, UniformDiffusionOperator(g), 1)
	if err != nil {
		return 0, err
	}
	if ok {
		solveLanczos.Add(1)
		return gm, nil
	}
	// Tiny-gap graph: the 1 − αλ₂ end of M's spectrum did not settle. λ₂
	// itself is still reachable by inverse power in O(n) memory, and the
	// |1 − αλ_max| end is bounded strictly below 1 for α = 1/(δ+1), so the
	// identity value dominates; keep the Ritz estimate as a floor.
	solveInversePower.Add(1)
	l2, err := Lambda2InversePower(g, 1)
	if err != nil {
		return 0, err
	}
	if hi := math.Abs(1 - alpha*l2); hi > gm {
		gm = hi
	}
	return gm, nil
}

// PaperGammaOf returns γ_P, the second-largest eigenvalue magnitude of the
// paper's diffusion matrix (transfer rule 1/(4·max(dᵢ,dⱼ))). Routing:
// closed form for families whose edge weight is a uniform c (then
// M_P = I − cL exactly), dense below the cutoff, implicit Lanczos above it.
// On non-convergence the best Ritz estimate is returned: γ_P only feeds
// reporting bounds, and the hard cases are exactly the tiny-gap families
// where γ_P ≈ 1 − c·λ₂ is already pinned by the λ₂ fallback path.
func PaperGammaOf(g *graph.G) (float64, error) {
	n := g.N()
	if n < 2 {
		return 0, fmt.Errorf("spectral: γ_P undefined for n=%d", n)
	}
	if c, ok := graph.KnownPaperEdgeScale(g); ok {
		l2, ok2 := graph.KnownLambda2(g)
		lm, ok3 := graph.KnownLambdaMax(g)
		if ok2 && ok3 {
			solveClosedForm.Add(1)
			return gammaFromLaplacian(c, l2, lm), nil
		}
	}
	if n <= denseCutoff {
		solveDense.Add(1)
		return Gamma(PaperDiffusionMatrix(g))
	}
	gm, _, err := GammaLanczos(g, PaperDiffusionOperator(g), 1)
	if err != nil {
		return 0, err
	}
	solveLanczos.Add(1)
	return gm, nil
}
