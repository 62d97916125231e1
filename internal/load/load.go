// Package load defines the load-vector abstractions shared by every
// balancing algorithm in this repository, together with the quantities the
// paper's analysis tracks: the quadratic potential Φ(L) = Σ(ℓᵢ − ℓ̄)² and
// the discrepancy K = max ℓᵢ − min ℓᵢ.
//
// Two concrete representations exist: Continuous (float64 loads, arbitrary
// splitting — the "ideal" model of §2.1) and Discrete (int64 token counts —
// the model of §2.2 and §4.2). Both satisfy conservation: no algorithm in
// this repository creates or destroys load, and the test suite enforces
// this as a property.
package load

import (
	"fmt"

	"repro/internal/matrix"
)

// Continuous is a continuous (infinitely divisible) load distribution.
type Continuous struct {
	v matrix.Vector
}

// NewContinuous wraps the given loads (copied).
func NewContinuous(loads []float64) *Continuous {
	return &Continuous{v: matrix.Vector(loads).Clone()}
}

// N returns the number of nodes.
func (c *Continuous) N() int { return len(c.v) }

// At returns node i's load.
func (c *Continuous) At(i int) float64 { return c.v[i] }

// Set assigns node i's load.
func (c *Continuous) Set(i int, x float64) { c.v[i] = x }

// Vector returns the underlying vector (shared, not copied). Callers that
// need isolation should Clone first.
func (c *Continuous) Vector() matrix.Vector { return c.v }

// Clone returns a deep copy.
func (c *Continuous) Clone() *Continuous { return &Continuous{v: c.v.Clone()} }

// Total returns Σℓᵢ.
func (c *Continuous) Total() float64 { return c.v.Sum() }

// Average returns ℓ̄ = Σℓᵢ/n.
func (c *Continuous) Average() float64 { return c.v.Mean() }

// Potential returns Φ(L) = Σᵢ(ℓᵢ − ℓ̄)².
func (c *Continuous) Potential() float64 {
	return PotentialAround(c.v, c.Average())
}

// Discrepancy returns K = maxᵢℓᵢ − minᵢℓᵢ.
func (c *Continuous) Discrepancy() float64 {
	if len(c.v) == 0 {
		return 0
	}
	return c.v.Max() - c.v.Min()
}

// String implements fmt.Stringer.
func (c *Continuous) String() string {
	return fmt.Sprintf("Continuous{n=%d total=%.3f Φ=%.3f K=%.3f}", c.N(), c.Total(), c.Potential(), c.Discrepancy())
}

// Discrete is an indivisible-token load distribution.
type Discrete struct {
	v []int64
}

// NewDiscrete wraps the given token counts (copied).
func NewDiscrete(tokens []int64) *Discrete {
	out := make([]int64, len(tokens))
	copy(out, tokens)
	return &Discrete{v: out}
}

// N returns the number of nodes.
func (d *Discrete) N() int { return len(d.v) }

// At returns node i's token count.
func (d *Discrete) At(i int) int64 { return d.v[i] }

// Set assigns node i's token count.
func (d *Discrete) Set(i int, x int64) { d.v[i] = x }

// Tokens returns the underlying counts (shared, not copied).
func (d *Discrete) Tokens() []int64 { return d.v }

// Clone returns a deep copy.
func (d *Discrete) Clone() *Discrete {
	out := make([]int64, len(d.v))
	copy(out, d.v)
	return &Discrete{v: out}
}

// Total returns Σℓᵢ.
func (d *Discrete) Total() int64 {
	var s int64
	for _, x := range d.v {
		s += x
	}
	return s
}

// Average returns ℓ̄ as a float64 (the discrete average need not be integer).
func (d *Discrete) Average() float64 {
	if len(d.v) == 0 {
		return 0
	}
	return float64(d.Total()) / float64(len(d.v))
}

// Potential returns Φ(L) = Σᵢ(ℓᵢ − ℓ̄)². The compensated sum runs straight
// over the token counts — the same bits as on Float64s(), without the
// n-float copy, so per-round Φ on a discrete cell does not allocate.
func (d *Discrete) Potential() float64 {
	return PotentialAround(d.v, d.Average())
}

// Discrepancy returns K = maxᵢℓᵢ − minᵢℓᵢ.
func (d *Discrete) Discrepancy() int64 {
	if len(d.v) == 0 {
		return 0
	}
	min, max := d.v[0], d.v[0]
	for _, x := range d.v[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return max - min
}

// Float64s returns the counts as a fresh float64 vector.
func (d *Discrete) Float64s() matrix.Vector {
	out := make(matrix.Vector, len(d.v))
	for i, x := range d.v {
		out[i] = float64(x)
	}
	return out
}

// String implements fmt.Stringer.
func (d *Discrete) String() string {
	return fmt.Sprintf("Discrete{n=%d total=%d Φ=%.3f K=%d}", d.N(), d.Total(), d.Potential(), d.Discrepancy())
}

// PotentialAround returns Σᵢ(xᵢ − c)² computed with compensated summation;
// the potential is differenced across rounds, so we avoid losing the small
// per-round drops to cancellation. Integer token counts are converted one at
// a time, exactly as a float copy of them would hold.
func PotentialAround[E float64 | int64](x []E, c float64) float64 {
	var sum, comp float64
	for _, v := range x {
		d := float64(v) - c
		term := d * d
		y := term - comp
		t := sum + y
		comp = (t - sum) - y
		sum = t
	}
	return sum
}

// PairwiseSquaredSum returns ΣᵢΣⱼ(ℓᵢ − ℓⱼ)² over all ordered pairs, the
// left side of the Lemma 10 identity ΣᵢΣⱼ(ℓᵢ−ℓⱼ)² = 2n·Φ(L). It is O(n)
// via the expansion Σᵢⱼ(ℓᵢ−ℓⱼ)² = 2n·Σℓᵢ² − 2(Σℓᵢ)²; the O(n²) direct
// evaluation lives in the tests as the oracle.
func PairwiseSquaredSum(x matrix.Vector) float64 {
	n := float64(len(x))
	var s, sq float64
	for _, v := range x {
		s += v
		sq += v * v
	}
	return 2*n*sq - 2*s*s
}
