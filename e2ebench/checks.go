package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
)

// The correctness checks are pure functions of what a run produced, so the
// test can feed each one a deliberately broken input and watch it fire.

// exactSum is a compensated (Neumaier) sum; its own error is at most a few
// ulps of the result, far below the conservation tolerance.
func exactSum(xs []float64) float64 {
	var s, c float64
	for _, x := range xs {
		t := s + x
		if math.Abs(s) >= math.Abs(x) {
			c += (s - t) + x
		} else {
			c += (x - t) + s
		}
		s = t
	}
	return s + c
}

// conservationTol is the ulp-derived bound on how far the total load of a
// continuous run may drift: every round moves each node's load through at
// most maxDeg+1 rounded additions, each off by at most half an ulp of the
// total, so rounds·(maxDeg+1)·ε·total bounds the drift (with a factor 2 of
// slack for the compensated sums on either side).
func conservationTol(total float64, rounds, maxDeg int) float64 {
	const eps = 0x1p-52
	return 2 * float64(rounds+1) * float64(maxDeg+1) * eps * math.Abs(total)
}

// checkConservation compares the total load before and after a static run.
// Discrete (token) runs must conserve exactly; continuous runs within
// conservationTol.
func checkConservation(before, after []float64, discrete bool, rounds, maxDeg int) error {
	if len(before) != len(after) {
		return fmt.Errorf("node count changed: %d → %d", len(before), len(after))
	}
	b, a := exactSum(before), exactSum(after)
	if discrete {
		for i, v := range after {
			if v != math.Trunc(v) || v < 0 {
				return fmt.Errorf("node %d holds %v tokens", i, v)
			}
		}
		if a != b {
			return fmt.Errorf("token total %v → %v", b, a)
		}
		return nil
	}
	if tol := conservationTol(b, rounds, maxDeg); math.Abs(a-b) > tol {
		return fmt.Errorf("load total %.17g → %.17g (drift %.3g > tolerance %.3g)", b, a, a-b, tol)
	}
	return nil
}

// checkMonotone requires the potential never to rise from one round to the
// next — the contraction every static continuous diffusion run obeys.
func checkMonotone(trace []float64) error {
	for t := 1; t < len(trace); t++ {
		if trace[t] > trace[t-1] {
			return fmt.Errorf("Φ rose at round %d: %.17g → %.17g", t, trace[t-1], trace[t])
		}
	}
	return nil
}

// checkInjected requires the server's injected-load total and arrival count
// to equal what it acknowledged with 202: every accepted arrival committed
// exactly once. Amounts are multiples of one power of two, the job size:
// their sums are exact in any order below 2⁵³ jobs.
func checkInjected(ackedAmount float64, ackedCount int, injected float64, arrivals int64) error {
	if injected != ackedAmount {
		return fmt.Errorf("server injected %.17g but acknowledged %.17g", injected, ackedAmount)
	}
	if arrivals != int64(ackedCount) {
		return fmt.Errorf("server counted %d arrivals but acknowledged %d", arrivals, ackedCount)
	}
	return nil
}

// checkNoFailedCells requires every journaled cell to have succeeded.
func checkNoFailedCells(cells, failed int, firstErr string) error {
	if failed > 0 {
		return fmt.Errorf("%d of %d cells failed (first: %s)", failed, cells, firstErr)
	}
	return nil
}

// checkCount requires got items where want were expected.
func checkCount(got, want int) error {
	if got != want {
		return fmt.Errorf("%d of %d", got, want)
	}
	return nil
}

// checkSameBytes requires two outputs to be byte-identical, naming the
// first differing line when they are not.
func checkSameBytes(want, got []byte) error {
	if bytes.Equal(want, got) {
		return nil
	}
	wl, gl := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if !bytes.Equal(wl[i], gl[i]) {
			return fmt.Errorf("outputs differ at line %d (%s vs %s)", i+1, hash(want), hash(got))
		}
	}
	return fmt.Errorf("outputs differ in length: %d vs %d lines (%s vs %s)", len(wl), len(gl), hash(want), hash(got))
}

func hash(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8])
}
