package matrix

import (
	"math"
	"math/rand"
	"testing"
)

func TestNewDenseZero(t *testing.T) {
	m := NewDense(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("shape = %dx%d, want 3x4", m.Rows(), m.Cols())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("fresh matrix not zero at (%d,%d)", i, j)
			}
		}
	}
}

func TestNewDenseFrom(t *testing.T) {
	m, err := NewDenseFrom([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Fatalf("unexpected entries: %v", m)
	}
}

func TestNewDenseFromRagged(t *testing.T) {
	if _, err := NewDenseFrom([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("expected error on ragged rows")
	}
}

func TestNewDenseFromEmpty(t *testing.T) {
	m, err := NewDenseFrom(nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows() != 0 || m.Cols() != 0 {
		t.Fatalf("empty matrix shape %dx%d", m.Rows(), m.Cols())
	}
}

func TestIdentity(t *testing.T) {
	id := Identity(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Fatalf("I[%d][%d] = %v", i, j, id.At(i, j))
			}
		}
	}
}

func TestSetAddAt(t *testing.T) {
	m := NewDense(2, 2)
	m.Set(0, 1, 5)
	m.Add(0, 1, 2.5)
	if got := m.At(0, 1); got != 7.5 {
		t.Fatalf("At(0,1) = %v, want 7.5", got)
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDense(2, 2).At(2, 0)
}

func TestMulVec(t *testing.T) {
	a, _ := NewDenseFrom([][]float64{{1, 2, 3}, {4, 5, 6}})
	got, err := a.MulVec(Vector{1, 0, -1})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != -2 || got[1] != -2 {
		t.Fatalf("MulVec = %v", got)
	}
}

func TestMulVecMismatch(t *testing.T) {
	if _, err := NewDense(2, 3).MulVec(Vector{1, 2}); err == nil {
		t.Fatal("expected dimension error")
	}
}

func TestScale(t *testing.T) {
	a, _ := NewDenseFrom([][]float64{{1, -2}, {3, 4}})
	a.Scale(2)
	if a.At(0, 1) != -4 || a.At(1, 1) != 8 {
		t.Fatalf("scale wrong: %v", a)
	}
}

func TestIsSymmetric(t *testing.T) {
	s, _ := NewDenseFrom([][]float64{{1, 2}, {2, 1}})
	if !s.IsSymmetric(0) {
		t.Fatal("symmetric matrix reported asymmetric")
	}
	a, _ := NewDenseFrom([][]float64{{1, 2}, {3, 1}})
	if a.IsSymmetric(0.5) {
		t.Fatal("asymmetric matrix reported symmetric")
	}
	if NewDense(2, 3).IsSymmetric(1) {
		t.Fatal("non-square cannot be symmetric")
	}
}

func TestRowSums(t *testing.T) {
	a, _ := NewDenseFrom([][]float64{{0.25, 0.75}, {0.5, 0.5}})
	rs := a.RowSums()
	if math.Abs(rs[0]-1) > 1e-15 || math.Abs(rs[1]-1) > 1e-15 {
		t.Fatalf("row sums %v", rs)
	}
}

func TestMaxAbs(t *testing.T) {
	a, _ := NewDenseFrom([][]float64{{3, 0}, {0, -4}})
	if got := a.MaxAbs(); got != 4 {
		t.Fatalf("MaxAbs = %v, want 4", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	a, _ := NewDenseFrom([][]float64{{1, 2}, {3, 4}})
	b := a.Clone()
	b.Set(0, 0, -1)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone must deep-copy")
	}
}

func TestMulVecToMatchesMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randomDense(rng, 6, 4)
	x := randomVector(rng, 4)
	want, _ := a.MulVec(x)
	got := make(Vector, 6)
	a.MulVecTo(got, x)
	if !got.ApproxEqual(want, 0) {
		t.Fatalf("MulVecTo %v != MulVec %v", got, want)
	}
}

func TestStringSmallAndLarge(t *testing.T) {
	small, _ := NewDenseFrom([][]float64{{1, 2}, {3, 4}})
	if s := small.String(); len(s) == 0 {
		t.Fatal("empty String for small matrix")
	}
	big := NewDense(20, 20)
	if s := big.String(); len(s) > 40 {
		t.Fatalf("large matrix should be abbreviated, got %q", s)
	}
}

func randomDense(rng *rand.Rand, r, c int) *Dense {
	m := NewDense(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	return m
}

func randomVector(rng *rand.Rand, n int) Vector {
	v := make(Vector, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}
