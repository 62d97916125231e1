package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/speccache"
	"repro/internal/spectral"
	"repro/internal/topoparse"
	"repro/internal/workload"
)

// bigCellSpec is one cell of the big-cell workload.
type bigCellSpec struct {
	topology string
	n        int
	alg      core.Algorithm
	mode     core.Mode
	loads    string // workload kind of the initial loads
}

// bigCells are the big-cell workload's cells, each driven to its ε target:
//   - torus 256² diffusion from a spike: a long CSR stepping loop whose λ₂
//     is closed-form;
//   - de Bruijn 2¹⁶ diffusion: λ₂ takes the implicit Lanczos path;
//   - torus 256² random partners on tokens: the discrete randpair stepper;
//   - random-regular 2¹¹ dimension exchange: λ₂ on the Lanczos path of an
//     expander, whose Ritz values converge slowly (1–1.5 s cold). At 2¹⁴
//     the solve falls off Lanczos onto the inverse-power fallback and takes
//     8–11 s — too long to repeat a pass at least three times in a run.
func bigCells(toy bool) []bigCellSpec {
	big, rr := 1<<16, 1<<11
	if toy {
		big, rr = 1<<10, 1<<8
	}
	return []bigCellSpec{
		{"torus", big, core.Diffusion, core.Continuous, "spike"},
		{"debruijn", big, core.Diffusion, core.Continuous, "uniform"},
		{"torus", big, core.RandomPartners, core.Discrete, "uniform"},
		{"random-regular", rr, core.DimensionExchange, core.Continuous, "uniform"},
	}
}

// bigInput is one cell's generated input.
type bigInput struct {
	spec  bigCellSpec
	g     *graph.G
	loads []float64
}

// buildBigInputs builds every cell's graph and initial loads. The graphs
// are fixed (the random-regular one from a constant seed, so every run
// solves the same spectrum); the loads come from the seed.
func buildBigInputs(c *config) ([]bigInput, error) {
	var ins []bigInput
	for i, cs := range bigCells(c.toy) {
		g, err := topoparse.Build(cs.topology, cs.n, int64(i+1))
		if err != nil {
			return nil, err
		}
		kind, err := workload.ParseKind(cs.loads)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(c.seed*104729 + int64(i)))
		ins = append(ins, bigInput{spec: cs, g: g, loads: workload.Continuous(kind, g.N(), 1e6, rng)})
	}
	return ins, nil
}

// cellRun is what driving one big cell measured.
type cellRun struct {
	name       string
	open       time.Duration // core.Open, including the cold λ₂ solve
	loop       time.Duration // the Step/Commit round loop
	medRound   time.Duration // median Step+Commit time of one round
	step       time.Duration // traced runs only
	commit     time.Duration // traced runs only
	spectra    time.Duration // traced runs only (obs.Phases)
	rounds     int
	nodeRounds float64
}

// driveCell opens in, steps it to its ε target and checks its invariants.
// With rec set every Open, Step and Commit call is a span under parent.
func driveCell(in bigInput, workers int, rec *recorder, parent int, o *outcome) (cellRun, error) {
	cs := in.spec
	cr := cellRun{name: fmt.Sprintf("%s n=%d %v %v", cs.topology, in.g.N(), cs.alg, cs.mode)}
	cfg := core.Config{Graph: in.g, Algorithm: cs.alg, Mode: cs.mode, Loads: in.loads, Workers: workers}
	var phases *obs.Phases
	if rec.on() {
		phases = &obs.Phases{}
		cfg.Phases = phases
	}
	// Every cell solves its spectra cold, as a fresh process would, and
	// starts from a collected heap.
	speccache.Shared().Reset()
	runtime.GC()
	cell := rec.open(cr.name, layerBench, trackMain, parent)
	defer rec.close(cell)

	t0 := time.Now()
	s, err := core.Open(cfg)
	t1 := time.Now()
	if err != nil {
		return cr, err
	}
	cr.open = t1.Sub(t0)
	if rec.on() {
		open := rec.add("core.Open", layerCore, trackMain, cell, t0, t1, nil)
		rec.tile(open, trackMain, t0, []phaseSpan{{"λ₂ solve", layerSpectral, phases.Duration(obs.PhaseSpectra)}})
		cr.spectra = phases.Duration(obs.PhaseSpectra)
	}
	before := s.Snapshot()
	trace := []float64{s.Phi()}
	horizon := s.Horizon()
	stepLayer := cs.alg.String()
	var roundS []float64
	loopStart := time.Now()
	for s.Phi() > s.Target() && s.Rounds() < horizon {
		if rec.on() {
			a := time.Now()
			if err := s.Step(); err != nil {
				return cr, err
			}
			b := time.Now()
			phi, err := s.Commit()
			if err != nil {
				return cr, err
			}
			e := time.Now()
			rec.add("Step", stepLayer, trackMain, cell, a, b, nil)
			rec.add("Commit", layerCore, trackMain, cell, b, e, nil)
			cr.step += b.Sub(a)
			cr.commit += e.Sub(b)
			roundS = append(roundS, e.Sub(a).Seconds())
			trace = append(trace, phi)
			continue
		}
		a := time.Now()
		if err := s.Step(); err != nil {
			return cr, err
		}
		phi, err := s.Commit()
		if err != nil {
			return cr, err
		}
		roundS = append(roundS, time.Since(a).Seconds())
		trace = append(trace, phi)
	}
	cr.loop = time.Since(loopStart)
	cr.medRound = time.Duration(median(roundS) * float64(time.Second))
	cr.rounds = s.Rounds()
	cr.nodeRounds = float64(in.g.N()) * float64(cr.rounds)
	converged := s.Phi() <= s.Target()
	after := s.Snapshot()
	s.Close()

	o.op(converged)
	if !converged {
		o.check(cr.name+": reaches ε target", fmt.Errorf("Φ %.6g > target %.6g after %d rounds", s.Phi(), s.Target(), cr.rounds))
	}
	o.check(cr.name+": conserves load", checkConservation(before, after, cs.mode == core.Discrete, cr.rounds, in.g.MaxDegree()))
	if cs.alg == core.Diffusion && cs.mode == core.Continuous {
		o.check(cr.name+": Φ never rises", checkMonotone(trace))
	}
	return cr, nil
}

// runBigCell is the big-cell workload: passes over bigCells, each cell
// driven stepwise through core.Open/Step/Commit with nproc round workers,
// for the run's budget (at least one pass).
func runBigCell(ctx context.Context, c *config, rec *recorder, o *outcome) error {
	var ins []bigInput
	setup, err := timeSetup(11, func() error {
		var err error
		ins, err = buildBigInputs(c)
		return err
	})
	if err != nil {
		return err
	}
	o.set("setup_s", setup)
	o.set("topoparse.build_s", setup)
	workers := runtime.NumCPU()

	// A traced run first drives the first cell untraced, at nproc and at
	// one round worker: the references for the tracing overhead and the
	// round-worker speed-up.
	var refLoop, rw1Loop time.Duration
	if rec.on() {
		ref, err := driveCell(ins[0], workers, nil, -1, o)
		if err != nil {
			return err
		}
		rw1, err := driveCell(ins[0], 1, nil, -1, o)
		if err != nil {
			return err
		}
		refLoop, rw1Loop = ref.loop, rw1.loop
	}

	type pass struct {
		cells []cellRun
		total time.Duration
	}
	var passes []pass
	var att attribution
	solves0 := spectral.SolveStats()
	start := time.Now()
	for i := 0; ; i++ {
		root := rec.open(fmt.Sprintf("big-cell pass %d", i), layerBench, trackMain, -1)
		p := pass{}
		t0 := time.Now()
		for _, in := range ins {
			cr, err := driveCell(in, workers, rec, root, o)
			if err != nil {
				return fmt.Errorf("%s: %w", cr.name, err)
			}
			p.cells = append(p.cells, cr)
		}
		p.total = time.Since(t0)
		rec.close(root)
		if rec.on() {
			att.merge(rec.attribute(root))
		}
		passes = append(passes, p)
		if c.deadline(start, p.total) {
			break
		}
	}

	// Time to ε is taken per cell as its median over the passes, so one
	// slow solve does not move the sum.
	perCell := make([][]float64, len(ins))
	var nrps, p50, p99, ack []float64
	for _, p := range passes {
		// The round loop's throughput is taken at each cell's median round
		// time, so a stall of the machine during a few rounds does not move
		// it.
		var sumCell, loop time.Duration
		var nodeRounds float64
		var commits, opens []float64
		for i, cr := range p.cells {
			perCell[i] = append(perCell[i], (cr.open + cr.loop).Seconds())
			opens = append(opens, ms(sumCell+cr.open))
			sumCell += cr.open + cr.loop
			commits = append(commits, ms(sumCell))
			loop += time.Duration(cr.rounds) * cr.medRound
			nodeRounds += cr.nodeRounds
		}
		nrps = append(nrps, nodeRounds/loop.Seconds())
		p50 = append(p50, quantile(commits, 0.5))
		p99 = append(p99, quantile(commits, 0.99))
		ack = append(ack, quantile(opens, 0.99))
	}
	tte := 0.0
	for _, xs := range perCell {
		tte += median(xs)
	}
	o.set("cells_per_s", float64(len(ins))/tte)
	o.set("max_ok_rate", float64(len(ins))/tte)
	o.set("time_to_eps_s", tte)
	o.set("node_rounds_per_s", median(nrps))
	o.set("a2c_p50_ms", median(p50))
	o.set("a2c_p99_ms", median(p99))
	o.set("ack_p99_ms", median(ack))
	o.notef("big-cell: %d passes", len(passes))
	for _, cr := range passes[0].cells {
		o.notef("big-cell: %-40s open %8.3fs  %5d rounds in %8.3fs", cr.name, cr.open.Seconds(), cr.rounds, cr.loop.Seconds())
	}

	// Per-layer numbers, per pass.
	reps := float64(len(passes))
	setSolves(o, solves0, reps)
	var open, spectra, step, commit float64
	stepNs := map[string]time.Duration{}
	work, degWork := map[string]float64{}, map[string]float64{}
	for _, p := range passes {
		for i, cr := range p.cells {
			open += cr.open.Seconds()
			spectra += cr.spectra.Seconds()
			step += cr.step.Seconds()
			commit += cr.commit.Seconds()
			a := ins[i].spec.alg.String()
			stepNs[a] += cr.step
			work[a] += cr.nodeRounds
			degWork[a] += cr.nodeRounds * meanDegree(ins[i].g)
		}
	}
	o.set("session.open_s", open/reps)
	o.set("spectral.lambda2_s", spectra/reps)
	setRoundPhases(o, step/reps, commit/reps, 0, 0)
	setStepperRates(o, stepNs, work, degWork)
	o.set("stepper.rw_speedup", ratio(rw1Loop.Seconds(), refLoop.Seconds()))
	if rec.on() {
		setTraceMetrics(c, o, att, passes[0].cells[0].loop.Seconds(), refLoop.Seconds())
	}
	return nil
}
