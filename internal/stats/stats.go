// Package stats provides the small statistical toolkit the experiment
// harness needs: summary statistics and the least-squares fits used to
// estimate empirical convergence rates from potential traces.
package stats

import (
	"fmt"
	"math"
)

// Summary holds the usual moments of a sample.
type Summary struct {
	N              int
	Mean, Variance float64 // unbiased (n−1) variance
	Min, Max       float64
}

// Summarize computes a Summary of xs. An empty sample yields zeros with
// Min = +Inf, Max = −Inf.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	if s.N == 0 {
		return s
	}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Variance = ss / float64(s.N-1)
	}
	return s
}

// Stddev returns the sample standard deviation.
func (s Summary) Stddev() float64 { return math.Sqrt(s.Variance) }

// String implements fmt.Stringer.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g sd=%.4g min=%.4g max=%.4g", s.N, s.Mean, s.Stddev(), s.Min, s.Max)
}

// LinearFit fits y ≈ a + b·x by ordinary least squares and returns the
// intercept a, slope b, and the coefficient of determination R².
// Fitting log Φ(t) against t recovers the empirical per-round decay rate
// that the theorems bound. Requires len(x) == len(y) ≥ 2.
func LinearFit(x, y []float64) (a, b, r2 float64) {
	n := len(x)
	if n != len(y) || n < 2 {
		panic("stats: LinearFit needs two equal-length samples of size >= 2")
	}
	var sx, sy float64
	for i := 0; i < n; i++ {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/float64(n), sy/float64(n)
	var sxx, sxy, syy float64
	for i := 0; i < n; i++ {
		dx, dy := x[i]-mx, y[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return my, 0, 0
	}
	b = sxy / sxx
	a = my - b*mx
	if syy == 0 {
		return a, b, 1
	}
	r2 = (sxy * sxy) / (sxx * syy)
	return a, b, r2
}

// GeometricDecayRate estimates the per-step multiplicative decay factor of
// a positive series (e.g. the potential trace Φ⁰, Φ¹, …) by an OLS fit of
// log values; the returned rate r satisfies series[t] ≈ series[0]·rᵗ.
// Entries ≤ 0 terminate the usable prefix. Returns 1 if fewer than two
// usable points exist.
func GeometricDecayRate(series []float64) float64 {
	xs := make([]float64, 0, len(series))
	ys := make([]float64, 0, len(series))
	for t, v := range series {
		if v <= 0 {
			break
		}
		xs = append(xs, float64(t))
		ys = append(ys, math.Log(v))
	}
	if len(xs) < 2 {
		return 1
	}
	_, slope, _ := LinearFit(xs, ys)
	return math.Exp(slope)
}
