package main

import (
	"strings"
	"time"

	"repro/internal/spectral"
)

var stepperAlgorithms = []string{"diffusion", "dimexchange", "randpair"}

// setSolves reports the spectral solve paths taken since before, per
// measured repetition.
func setSolves(o *outcome, before spectral.SolveCounts, reps float64) {
	now := spectral.SolveStats()
	o.set("spectral.solves_closed_form", float64(now.ClosedForm-before.ClosedForm)/reps)
	o.set("spectral.solves_dense", float64(now.Dense-before.Dense)/reps)
	o.set("spectral.solves_lanczos", float64(now.Lanczos-before.Lanczos)/reps)
	o.set("spectral.solves_inverse_power", float64(now.InversePower-before.InversePower)/reps)
}

// setRoundPhases reports the session's round-loop phases (seconds per
// measured repetition) and the commit's share of the loop — the share a
// Φ pass fused into the step could at most save.
func setRoundPhases(o *outcome, step, commit, inject, swap float64) {
	o.set("session.step_s", step)
	o.set("session.commit_s", commit)
	o.set("session.inject_s", inject)
	o.set("session.swap_graph_s", swap)
	o.set("session.commit_share", ratio(commit, step+commit+inject))
}

// setStepperRates reports each stepper's step time per node-round, and the
// computed bytes per node-round of the workload's stepper mix. work is
// n·rounds by algorithm, degWork n·rounds·(mean degree) by algorithm.
func setStepperRates(o *outcome, stepNs map[string]time.Duration, work, degWork map[string]float64) {
	var bytes, total float64
	for _, a := range stepperAlgorithms {
		o.set(a+".ns_per_node_round", ratio(float64(stepNs[a].Nanoseconds()), work[a]))
		if work[a] > 0 {
			bytes += work[a] * bytesPerNodeRound(a, degWork[a]/work[a])
			total += work[a]
		}
	}
	o.set("stepper.bytes_per_node_round_computed", ratio(bytes, total))
}

// bytesPerNodeRound is a computed estimate (not a measurement) of the
// memory one node-round of a stepper's loops touches, in 8-byte words of
// its arrays at mean degree d:
//   - diffusion scans its CSR row: own load, two row offsets and the new
//     load (4 words), then per neighbour its index, load and two offsets
//     (4 words);
//   - dimexchange draws a random matching over the edges (two endpoints per
//     edge, d/2 edges per node, read and shuffled) and averages matched
//     pairs in place (own load read and written, a matched flag);
//   - randpair draws one partner link per node (two endpoints written and
//     read), fills a degree array, copies the round-start loads and then
//     reads both endpoints' start loads and degrees and updates both loads.
func bytesPerNodeRound(algorithm string, d float64) float64 {
	switch algorithm {
	case "diffusion":
		return 8 * (4 + 4*d)
	case "dimexchange":
		return 8 * (3 + 2*d)
	case "randpair":
		return 8 * (4 + 3 + 2 + 4 + 4)
	}
	return 0
}

// unitTopology extracts the topology from a batch unit key.
func unitTopology(key string) string {
	topo, _, _ := strings.Cut(key, "/")
	return topo
}
