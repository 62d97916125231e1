// Package sim is the round-based simulation driver shared by the examples,
// the experiment harness and the integration tests. It runs any stepper —
// every algorithm package exposes the same tiny System surface — until a
// stopping condition fires, recording the potential trajectory and derived
// convergence metrics.
//
// The synchronous-round model of the paper maps directly onto this driver:
// one Step call is one parallel round; the driver never interleaves rounds.
package sim

import "fmt"

// System is the stepper interface implemented by every balancing algorithm
// in this repository (diffusion.Continuous, diffusion.Discrete,
// dimexchange.*, randpair.*, diffusion.FirstOrder, …).
type System interface {
	// Step advances the system one synchronous round.
	Step()
	// Potential returns Φ of the current load distribution.
	Potential() float64
}

// ContinuousState is implemented by continuous-mode steppers whose load
// vector can be read — and mutated in place — between rounds. It is the
// scenario engine's injection hook: a round loop reads the vector to aim
// (e.g. at the most-loaded node) and adds arrivals directly to it, without
// knowing the concrete algorithm type or rebuilding the stepper.
type ContinuousState interface {
	// LoadVector returns the live per-node load vector (not a copy).
	LoadVector() []float64
}

// DiscreteState is ContinuousState for token-mode steppers.
type DiscreteState interface {
	// LoadTokens returns the live per-node token counts (not a copy).
	LoadTokens() []int64
}

// StopFunc inspects the state after each round and returns true to halt.
// round is 1-based (the number of completed rounds), phi the potential
// after that round.
type StopFunc func(round int, phi float64) bool

// UntilPotential stops once Φ ≤ target.
func UntilPotential(target float64) StopFunc {
	return func(_ int, phi float64) bool { return phi <= target }
}

// UntilFraction stops once Φ ≤ frac·Φ⁰; phi0 must be the starting
// potential.
func UntilFraction(phi0, frac float64) StopFunc {
	target := phi0 * frac
	return func(_ int, phi float64) bool { return phi <= target }
}

// Result is the trajectory record of one run.
type Result struct {
	// Rounds is the number of rounds executed.
	Rounds int
	// Phi holds Φ after round t at index t (index 0 is the starting Φ), so
	// len(Phi) == Rounds+1.
	Phi []float64
	// Converged reports whether the stop condition fired (false means the
	// round limit was hit first).
	Converged bool
}

// PhiStart returns the initial potential.
func (r Result) PhiStart() float64 { return r.Phi[0] }

// PhiEnd returns the final potential.
func (r Result) PhiEnd() float64 { return r.Phi[len(r.Phi)-1] }

// String implements fmt.Stringer.
func (r Result) String() string {
	return fmt.Sprintf("Result{rounds=%d Φ: %.4g → %.4g converged=%v}", r.Rounds, r.PhiStart(), r.PhiEnd(), r.Converged)
}

// Run drives sys until stop fires or maxRounds elapse, recording Φ after
// every round. A nil stop runs all maxRounds rounds. maxRounds must be ≥ 0.
func Run(sys System, maxRounds int, stop StopFunc) Result {
	if maxRounds < 0 {
		panic("sim: negative maxRounds")
	}
	res := Result{Phi: make([]float64, 1, maxRounds+1)}
	res.Phi[0] = sys.Potential()
	if stop != nil && stop(0, res.Phi[0]) {
		res.Converged = true
		return res
	}
	for t := 1; t <= maxRounds; t++ {
		sys.Step()
		phi := sys.Potential()
		res.Phi = append(res.Phi, phi)
		res.Rounds = t
		if stop != nil && stop(t, phi) {
			res.Converged = true
			break
		}
	}
	return res
}

// RoundsToFraction runs sys until Φ ≤ frac·Φ⁰ and returns the round count,
// or maxRounds+1 if the target was not reached (sentinel convention used by
// the comparison experiments: "did not converge within budget").
func RoundsToFraction(sys System, frac float64, maxRounds int) int {
	phi0 := sys.Potential()
	if phi0 == 0 {
		return 0
	}
	res := Run(sys, maxRounds, UntilFraction(phi0, frac))
	if !res.Converged {
		return maxRounds + 1
	}
	return res.Rounds
}
