package load

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/matrix"
)

// Move transfers amount from node i to node j. Negative amounts move load
// the other way; the caller is responsible for sign conventions.
func (c *Continuous) Move(i, j int, amount float64) {
	c.v[i] -= amount
	c.v[j] += amount
}

// Move transfers tokens from node i to node j.
func (d *Discrete) Move(i, j int, tokens int64) {
	d.v[i] -= tokens
	d.v[j] += tokens
}

func TestContinuousBasics(t *testing.T) {
	c := NewContinuous([]float64{1, 2, 3})
	if c.N() != 3 || c.Total() != 6 || c.Average() != 2 {
		t.Fatalf("basics: %v", c)
	}
	if got := c.Potential(); math.Abs(got-2) > 1e-12 {
		t.Fatalf("Φ = %v, want 2", got)
	}
	if c.Discrepancy() != 2 {
		t.Fatalf("K = %v", c.Discrepancy())
	}
}

func TestContinuousMoveConserves(t *testing.T) {
	c := NewContinuous([]float64{5, 0})
	c.Move(0, 1, 2.5)
	if c.At(0) != 2.5 || c.At(1) != 2.5 {
		t.Fatalf("after move: %v %v", c.At(0), c.At(1))
	}
	if c.Total() != 5 {
		t.Fatal("move must conserve total")
	}
	if c.Potential() != 0 {
		t.Fatal("balanced state must have Φ=0")
	}
}

func TestContinuousCloneIsolation(t *testing.T) {
	c := NewContinuous([]float64{1, 2})
	d := c.Clone()
	d.Set(0, 99)
	if c.At(0) != 1 {
		t.Fatal("clone must not alias")
	}
}

func TestNewContinuousCopiesInput(t *testing.T) {
	src := []float64{1, 2}
	c := NewContinuous(src)
	src[0] = 99
	if c.At(0) != 1 {
		t.Fatal("constructor must copy")
	}
}

func TestDiscreteBasics(t *testing.T) {
	d := NewDiscrete([]int64{4, 0, 2})
	if d.N() != 3 || d.Total() != 6 {
		t.Fatalf("basics: %v", d)
	}
	if d.Average() != 2 {
		t.Fatalf("avg = %v", d.Average())
	}
	if d.Discrepancy() != 4 {
		t.Fatalf("K = %v", d.Discrepancy())
	}
	if got := d.Potential(); math.Abs(got-8) > 1e-12 {
		t.Fatalf("Φ = %v, want 8", got)
	}
}

// Discrete.Potential runs over the int64 counts directly; it must return
// the bits PotentialAround gives on the float copy, and allocate nothing.
func TestDiscretePotentialMatchesFloatPath(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 7, 1000} {
		v := make([]int64, n)
		for i := range v {
			v[i] = r.Int63n(1 << 40)
		}
		d := NewDiscrete(v)
		got, want := d.Potential(), PotentialAround(d.Float64s(), d.Average())
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("n=%d: Φ = %v, float path %v", n, got, want)
		}
		if a := testing.AllocsPerRun(10, func() { d.Potential() }); a != 0 {
			t.Fatalf("n=%d: Potential allocates %v times", n, a)
		}
	}
}

func TestDiscreteMoveAndConvert(t *testing.T) {
	d := NewDiscrete([]int64{10, 0})
	d.Move(0, 1, 5)
	if d.At(0) != 5 || d.At(1) != 5 {
		t.Fatal("move wrong")
	}
	c := NewContinuous(d.Float64s())
	if c.At(0) != 5 || c.Total() != 10 {
		t.Fatal("conversion wrong")
	}
}

func TestEmptyDistributions(t *testing.T) {
	c := NewContinuous(nil)
	if c.Potential() != 0 || c.Discrepancy() != 0 {
		t.Fatal("empty continuous conventions")
	}
	d := NewDiscrete(nil)
	if d.Potential() != 0 || d.Discrepancy() != 0 || d.Average() != 0 {
		t.Fatal("empty discrete conventions")
	}
}

func TestPotentialAroundCompensated(t *testing.T) {
	// Large offset with small deviations: naive accumulation in float32
	// territory would lose the deviations; compensated must not.
	x := make(matrix.Vector, 1000)
	for i := range x {
		x[i] = 1e9
	}
	x[0] = 1e9 + 1
	x[1] = 1e9 - 1
	got := PotentialAround(x, x.Mean())
	if math.Abs(got-2) > 1e-6 {
		t.Fatalf("Φ = %v, want ≈2", got)
	}
}

// Lemma 10 of the paper: ΣᵢΣⱼ(ℓᵢ−ℓⱼ)² = 2n·Φ(L), with the O(n²) double
// sum as oracle against the O(n) implementation.
func TestLemma10IdentityProperty(t *testing.T) {
	f := func(seed uint8) bool {
		r := rand.New(rand.NewSource(int64(seed)))
		n := 1 + r.Intn(40)
		x := make(matrix.Vector, n)
		for i := range x {
			x[i] = r.Float64() * 100
		}
		fast := PairwiseSquaredSum(x)
		var slow float64
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				d := x[i] - x[j]
				slow += d * d
			}
		}
		phi := PotentialAround(x, x.Mean())
		lhsOK := math.Abs(fast-slow) <= 1e-6*(1+slow)
		identityOK := math.Abs(slow-2*float64(n)*phi) <= 1e-6*(1+slow)
		return lhsOK && identityOK
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Φ is invariant under permutations and shifts the way it should
// be: adding a constant to every load leaves Φ unchanged.
func TestPotentialShiftInvarianceProperty(t *testing.T) {
	f := func(seed uint8, shiftRaw int8) bool {
		r := rand.New(rand.NewSource(int64(seed)))
		n := 1 + r.Intn(30)
		shift := float64(shiftRaw)
		x := make([]float64, n)
		for i := range x {
			x[i] = r.Float64() * 50
		}
		c1 := NewContinuous(x)
		for i := range x {
			x[i] += shift
		}
		c2 := NewContinuous(x)
		return math.Abs(c1.Potential()-c2.Potential()) < 1e-7*(1+c1.Potential())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: moving load from a heavier to a lighter node by no more than
// the difference never increases Φ (the microscopic fact behind Lemma 1).
func TestMoveTowardsBalanceDecreasesPotentialProperty(t *testing.T) {
	f := func(seed uint8) bool {
		r := rand.New(rand.NewSource(int64(seed)))
		n := 2 + r.Intn(20)
		x := make([]float64, n)
		for i := range x {
			x[i] = r.Float64() * 10
		}
		c := NewContinuous(x)
		before := c.Potential()
		i, j := r.Intn(n), r.Intn(n)
		if i == j {
			return true
		}
		if c.At(i) < c.At(j) {
			i, j = j, i
		}
		amount := (c.At(i) - c.At(j)) * r.Float64()
		c.Move(i, j, amount)
		return c.Potential() <= before+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestStringers(t *testing.T) {
	if s := NewContinuous([]float64{1}).String(); s == "" {
		t.Fatal("empty continuous String")
	}
	if s := NewDiscrete([]int64{1}).String(); s == "" {
		t.Fatal("empty discrete String")
	}
}
