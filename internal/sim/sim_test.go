package sim

import (
	"testing"

	"repro/internal/diffusion"
	"repro/internal/graph"
	"repro/internal/workload"
)

// halver is a trivial System whose potential halves every round.
type halver struct{ phi float64 }

func (h *halver) Step()              { h.phi /= 2 }
func (h *halver) Potential() float64 { return h.phi }

func TestRunRecordsTrajectory(t *testing.T) {
	res := Run(&halver{phi: 16}, 3, nil)
	want := []float64{16, 8, 4, 2}
	if res.Rounds != 3 || len(res.Phi) != 4 {
		t.Fatalf("result %+v", res)
	}
	for i, v := range want {
		if res.Phi[i] != v {
			t.Fatalf("Phi[%d] = %v, want %v", i, res.Phi[i], v)
		}
	}
	if res.Converged {
		t.Fatal("a nil stop must not converge")
	}
}

func TestRunStopsAtTarget(t *testing.T) {
	res := Run(&halver{phi: 16}, 100, UntilPotential(4))
	if !res.Converged || res.Rounds != 2 {
		t.Fatalf("result %+v", res)
	}
}

func TestRunStopImmediately(t *testing.T) {
	res := Run(&halver{phi: 1}, 100, UntilPotential(2))
	if !res.Converged || res.Rounds != 0 {
		t.Fatalf("should converge before stepping: %+v", res)
	}
}

func TestRunZeroRounds(t *testing.T) {
	res := Run(&halver{phi: 5}, 0, nil)
	if res.Rounds != 0 || res.PhiStart() != 5 || res.PhiEnd() != 5 {
		t.Fatalf("zero-round run %+v", res)
	}
}

func TestRunNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Run(&halver{phi: 1}, -1, nil)
}

func TestUntilFraction(t *testing.T) {
	res := Run(&halver{phi: 100}, 100, UntilFraction(100, 0.1))
	if !res.Converged || res.PhiEnd() > 10 {
		t.Fatalf("%+v", res)
	}
}

func TestRoundsToFraction(t *testing.T) {
	if got := RoundsToFraction(&halver{phi: 64}, 1.0/64, 100); got != 6 {
		t.Fatalf("rounds %d, want 6", got)
	}
	// Unreachable target returns the sentinel maxRounds+1.
	if got := RoundsToFraction(&halver{phi: 64}, 0, 10); got != 11 {
		t.Fatalf("sentinel %d, want 11", got)
	}
	// Already balanced start.
	if got := RoundsToFraction(&halver{phi: 0}, 0.5, 10); got != 0 {
		t.Fatalf("balanced start %d", got)
	}
}

func TestRunWithRealSystem(t *testing.T) {
	// Integration: drive the real continuous diffusion through the sim
	// layer and confirm the theorem-shaped behaviour end to end.
	g := graph.Torus(4, 4)
	init := workload.Continuous(workload.Spike, g.N(), 1e6, nil)
	st := diffusion.NewContinuous(g, init)
	phi0 := st.Potential()
	res := Run(st, 5000, UntilFraction(phi0, 1e-4))
	if !res.Converged {
		t.Fatalf("did not converge: %v", res)
	}
	// Trajectory must be monotone non-increasing.
	for i := 1; i < len(res.Phi); i++ {
		if res.Phi[i] > res.Phi[i-1]+1e-9*(1+res.Phi[i-1]) {
			t.Fatalf("Φ rose at %d", i)
		}
	}
}

func TestRunNilStop(t *testing.T) {
	res := Run(&halver{phi: 4}, 2, nil)
	if res.Rounds != 2 || res.Converged {
		t.Fatalf("nil stop: %+v", res)
	}
}
