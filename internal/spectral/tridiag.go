// Package spectral implements the symmetric eigensolvers the paper's bounds
// require. Every convergence theorem is expressed in terms of λ₂, the
// second-smallest eigenvalue of the graph Laplacian (the algebraic
// connectivity), or γ, the second-largest eigenvalue of the diffusion
// matrix. The Go ecosystem has no stdlib eigensolver, so this package
// implements the classic dense pipeline from scratch:
//
//   - Householder reduction of a symmetric matrix to tridiagonal form
//     (tridiag.go),
//   - the implicit-shift QL iteration on the tridiagonal matrix (ql.go),
//   - implicit Lanczos for the extremal eigenvalues of large sparse
//     Laplacians and diffusion operators (lanczos.go, iterative.go), with a
//     CG-based inverse-power fallback for tiny spectral gaps
//     (inversepower.go),
//
// together with graph-facing conveniences: Lambda2, DiffusionMatrix, Gamma
// (spectral.go).
//
// The dense algorithms follow the standard EISPACK/"Numerical Recipes"
// formulations (tred2/tql2); this is an independent reimplementation with
// Go-flavoured error handling and tests against closed-form graph spectra.
package spectral

import (
	"math"

	"repro/internal/matrix"
)

// Tridiagonal holds a symmetric tridiagonal matrix: diagonal d[0..n−1] and
// subdiagonal e[0..n−2] (e[i] couples rows i and i+1).
type Tridiagonal struct {
	D []float64 // diagonal, length n
	E []float64 // subdiagonal, length n (last entry unused, kept for QL convenience)
}

// Householder reduces the symmetric matrix a to tridiagonal form using
// Householder reflections, returning the tridiagonal matrix and, if
// wantVectors is set, the accumulated orthogonal transform Q such that
// a = Q·T·Qᵀ. The input matrix is not modified.
func Householder(a *matrix.Dense, wantVectors bool) (Tridiagonal, *matrix.Dense) {
	n := a.Rows()
	if a.Cols() != n {
		panic("spectral: Householder requires a square matrix")
	}
	if n == 0 {
		if wantVectors {
			return Tridiagonal{D: nil, E: nil}, matrix.NewDense(0, 0)
		}
		return Tridiagonal{D: nil, E: nil}, nil
	}
	// Work on a copy; z accumulates the transform in place (tred2 layout).
	z := a.Clone()
	d := make([]float64, n)
	e := make([]float64, n)

	for i := n - 1; i >= 1; i-- {
		l := i - 1
		var h, scale float64
		if l > 0 {
			for k := 0; k <= l; k++ {
				scale += math.Abs(z.At(i, k))
			}
			if scale == 0 {
				e[i] = z.At(i, l)
			} else {
				for k := 0; k <= l; k++ {
					z.Set(i, k, z.At(i, k)/scale)
					h += z.At(i, k) * z.At(i, k)
				}
				f := z.At(i, l)
				g := math.Sqrt(h)
				if f > 0 {
					g = -g
				}
				e[i] = scale * g
				h -= f * g
				z.Set(i, l, f-g)
				var fSum float64
				for j := 0; j <= l; j++ {
					if wantVectors {
						z.Set(j, i, z.At(i, j)/h)
					}
					g = 0
					for k := 0; k <= j; k++ {
						g += z.At(j, k) * z.At(i, k)
					}
					for k := j + 1; k <= l; k++ {
						g += z.At(k, j) * z.At(i, k)
					}
					e[j] = g / h
					fSum += e[j] * z.At(i, j)
				}
				hh := fSum / (h + h)
				for j := 0; j <= l; j++ {
					f = z.At(i, j)
					g = e[j] - hh*f
					e[j] = g
					for k := 0; k <= j; k++ {
						z.Set(j, k, z.At(j, k)-f*e[k]-g*z.At(i, k))
					}
				}
			}
		} else {
			e[i] = z.At(i, l)
		}
		d[i] = h
	}
	if wantVectors {
		d[0] = 0
	}
	e[0] = 0

	for i := 0; i < n; i++ {
		if wantVectors {
			l := i - 1
			if d[i] != 0 {
				for j := 0; j <= l; j++ {
					var g float64
					for k := 0; k <= l; k++ {
						g += z.At(i, k) * z.At(k, j)
					}
					for k := 0; k <= l; k++ {
						z.Set(k, j, z.At(k, j)-g*z.At(k, i))
					}
				}
			}
			d[i] = z.At(i, i)
			z.Set(i, i, 1)
			for j := 0; j <= l; j++ {
				z.Set(j, i, 0)
				z.Set(i, j, 0)
			}
		} else {
			d[i] = z.At(i, i)
		}
	}
	if !wantVectors {
		z = nil
	}
	return Tridiagonal{D: d, E: e}, z
}
