package parallel

import (
	"sync/atomic"
	"testing"
)

func TestForCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		n := 100
		seen := make([]int32, n)
		For(n, workers, func(i int) { atomic.AddInt32(&seen[i], 1) })
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestForEmpty(t *testing.T) {
	called := false
	For(0, 4, func(int) { called = true })
	if called {
		t.Fatal("body must not run for n=0")
	}
	For(-3, 4, func(int) { called = true })
	if called {
		t.Fatal("body must not run for negative n")
	}
}

func TestDeriveSeedDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for i := 0; i < 100; i++ {
		s := DeriveSeed(7, i)
		if seen[s] {
			t.Fatalf("duplicate derived seed at %d", i)
		}
		seen[s] = true
	}
	if DeriveSeed(7, 0) != DeriveSeed(7, 0) {
		t.Fatal("derivation must be deterministic")
	}
}
