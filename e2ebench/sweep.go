package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/speccache"
	"repro/internal/spectral"
	"repro/internal/topoparse"
)

const sweepShards = 2

// setupReps is how many times a workload repeats a set-up that takes
// milliseconds; the median of many is steady.
const setupReps = 21

// Trace rows.
const (
	trackMain    = 0
	trackJournal = 1
	trackRounds  = 2
	trackHTTP    = 10  // + connection index
	trackChild   = 20  // + task index
	trackGrid    = 100 // + obs tracer tid
)

// sweepSpec is the grid both sweep workloads run: 5 topologies × 3
// algorithms × 2 modes × 2 initial loads × 3 scenarios × 4 seeds = 720
// cells at n = 256 (the toy size shrinks n and the seed list). The seeds
// derive from the workload seed, so one --seed names one grid.
func sweepSpec(c *config) batch.Spec {
	n, seeds := 256, 4
	if c.toy {
		n, seeds = 16, 1
	}
	spec := batch.Spec{
		Topologies: []string{"cycle", "torus", "hypercube", "random-regular", "debruijn"},
		N:          n,
		Algorithms: []string{"diffusion", "dimexchange", "randpair"},
		Modes:      []string{"continuous", "discrete"},
		Workloads:  []string{"spike", "uniform"},
		Scenarios:  []string{"static", "poisson-arrivals", "edge-churn"},
		Workers:    runtime.NumCPU(),
	}
	for i := 0; i < seeds; i++ {
		spec.Seeds = append(spec.Seeds, c.seed*int64(seeds)+int64(i)+1)
	}
	return spec
}

// sweepSetup is the user-visible set-up of a sweep: building each
// topology and expanding the grid into units. It returns the median of
// reps repetitions.
func sweepSetup(spec batch.Spec, reps int) (float64, error) {
	return timeSetup(reps, func() error {
		for i, name := range spec.Topologies {
			if _, err := topoparse.Build(name, spec.N, int64(i+1)); err != nil {
				return err
			}
		}
		_, err := batch.Expand(spec)
		return err
	})
}

// cellTimes is what the benchmark observed of one journaled cell.
type cellTimes struct {
	commit time.Duration // sweep start → line written to its shard journal
	ack    time.Duration // sweep start → its shard's first cell written
	wall   time.Duration // the unit's own run time (in-process sweeps only)
	rounds int
	err    string
}

// timedSink wraps a shard's journal sink: it timestamps each cell as its
// line is written, and records the writes' cost.
type timedSink struct {
	inner  *batch.JSONLSink
	start  time.Time
	rec    *recorder
	parent int

	mu      sync.Mutex
	cells   []cellTimes
	writeNs time.Duration
}

func (s *timedSink) Spec(spec batch.Spec) error { return s.inner.Spec(spec) }

func (s *timedSink) Close() error { return s.inner.Close() }

func (s *timedSink) Cell(c batch.Cell) error {
	t0 := time.Now()
	err := s.inner.Cell(c)
	t1 := time.Now()
	s.rec.add("journal cell", layerBatch, trackJournal, s.parent, t0, t1, nil)
	s.mu.Lock()
	ct := cellTimes{commit: t1.Sub(s.start), wall: c.Wall, rounds: c.Rounds, err: c.Err}
	ct.ack = ct.commit
	if len(s.cells) > 0 {
		ct.ack = s.cells[0].commit
	}
	s.cells = append(s.cells, ct)
	s.writeNs += t1.Sub(t0)
	s.mu.Unlock()
	return err
}

// sweepRun is one journaled, merged sweep.
type sweepRun struct {
	wall       time.Duration
	merged     []byte
	cells      []cellTimes
	sinkTime   time.Duration
	mergeTime  time.Duration
	journalB   int64
	poolTail   time.Duration
	nodeRounds float64
	// Traced sweeps only: obs.Phases totals by phase name, step time and
	// n·rounds by algorithm, and n·rounds·(mean degree) by algorithm.
	phases   map[string]time.Duration
	stepNs   map[string]time.Duration
	stepWork map[string]float64
	degWork  map[string]float64
	// traces are the shards' obs events, imported into the recorder once
	// the sweep's root span has closed, so the bookkeeping is not timed.
	traces []shardTrace
}

// shardTrace is what one traced GridRun left to import.
type shardTrace struct {
	events *bytes.Buffer // the obs.Tracer's JSONL output
	base   time.Time     // when the tracer was created
	span   int           // its GridRun span
}

func (sr *sweepRun) failedCells() (int, string) {
	failed, first := 0, ""
	for _, ct := range sr.cells {
		if ct.err != "" {
			failed++
			if first == "" {
				first = ct.err
			}
		}
	}
	return failed, first
}

// runGridShards runs spec in-process as two shards, one after the other,
// each core.GridRun at -parallel nproc streaming to its own journal file,
// then merges the shard journals with batch.MergeJournals into one file.
func runGridShards(ctx context.Context, spec batch.Spec, dir string, rec *recorder, parent int) (*sweepRun, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	graphs, err := batch.BuildGraphs(spec)
	if err != nil {
		return nil, err
	}
	sr := &sweepRun{
		phases: map[string]time.Duration{}, stepNs: map[string]time.Duration{},
		stepWork: map[string]float64{}, degWork: map[string]float64{},
	}
	start := time.Now()
	var paths []string
	for i := 0; i < sweepShards; i++ {
		path := filepath.Join(dir, fmt.Sprintf("shard-%d.jsonl", i))
		c0 := time.Now()
		js, err := batch.CreateJSONL(path)
		if err != nil {
			return nil, err
		}
		rec.add("CreateJSONL", layerBatch, trackMain, parent, c0, time.Now(), nil)
		span := rec.open(fmt.Sprintf("GridRun shard %d/%d", i, sweepShards), layerBatch, trackMain, parent)
		sink := &timedSink{inner: js, start: start, rec: rec, parent: span}
		opts := []core.GridOption{core.GridShard(i, sweepShards), core.GridSink(sink), core.GridStreamOnly()}
		var evbuf bytes.Buffer
		var tr *obs.Tracer
		if rec.on() {
			tr = obs.NewTracer(&evbuf)
			sr.traces = append(sr.traces, shardTrace{events: &evbuf, base: time.Now(), span: span})
			opts = append(opts, core.GridTrace(tr))
		}
		_, runErr := core.GridRun(ctx, spec, opts...)
		rec.close(span)
		c1 := time.Now()
		if err := js.Close(); err != nil && runErr == nil {
			runErr = err
		}
		rec.add("journal fsync+close", layerBatch, trackMain, parent, c1, time.Now(), nil)
		if runErr != nil {
			return nil, fmt.Errorf("shard %d: %w", i, runErr)
		}
		sr.cells = append(sr.cells, sink.cells...)
		sr.sinkTime += sink.writeNs
		if err := tr.Flush(); err != nil {
			return nil, err
		}
		paths = append(paths, path)
		fi, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		sr.journalB += fi.Size()
	}
	merged, mergeTime, err := mergeShards(paths, filepath.Join(dir, "merged.jsonl"), rec, parent, layerBatch)
	if err != nil {
		return nil, err
	}
	sr.merged, sr.mergeTime = merged, mergeTime
	sr.wall = time.Since(start)
	n := float64(spec.N)
	for _, g := range graphs {
		n = float64(g.N()) // every topology of the grid has the same n
	}
	for _, ct := range sr.cells {
		sr.nodeRounds += n * float64(ct.rounds)
	}
	return sr, nil
}

// mergeShards merges shard journals into out with batch.MergeJournals and
// returns the merged bytes.
func mergeShards(paths []string, out string, rec *recorder, parent int, layer string) ([]byte, time.Duration, error) {
	span := rec.open("MergeJournals", layer, trackMain, parent)
	t0 := time.Now()
	js, err := batch.CreateJSONL(out)
	if err != nil {
		return nil, 0, err
	}
	if _, err := batch.MergeJournals(js, paths...); err != nil {
		js.Close()
		return nil, 0, err
	}
	if err := js.Close(); err != nil {
		return nil, 0, err
	}
	d := time.Since(t0)
	rec.close(span)
	b, err := os.ReadFile(out)
	return b, d, err
}

// poolTail is the time at the end of a shard's pool run during which
// fewer units ran than there are workers: with w workers the pool is full
// until the (w−1)-th-to-last unit ends; from then to the shard's end at
// least one worker idles.
func poolTail(rec *recorder, units []int, shard int, workers int) time.Duration {
	if len(units) < workers || workers < 2 {
		return 0
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	ends := make([]float64, 0, len(units))
	for _, id := range units {
		ends = append(ends, float64(rec.spans[id].end))
	}
	sort.Float64s(ends)
	return rec.spans[shard].end - time.Duration(ends[len(ends)-workers+1])
}

// accumulatePhases folds the unit and obs.Phases spans of a traced GridRun
// into per-phase and per-algorithm totals.
func accumulatePhases(events []obs.Event, graphs map[string]*graph.G, sr *sweepRun) {
	lastAlgo := map[int64]string{}
	for _, ev := range events {
		if ev.Ph != "X" {
			continue
		}
		switch ev.Cat {
		case "unit":
			algo := unitAlgorithm(ev.Name)
			lastAlgo[ev.Tid] = algo
			n, _ := ev.Args["n"].(float64)
			rounds, _ := ev.Args["rounds"].(float64)
			sr.stepWork[algo] += n * rounds
			if g := graphs[unitTopology(ev.Name)]; g != nil {
				sr.degWork[algo] += n * rounds * meanDegree(g)
			}
		case "phase":
			d := time.Duration(ev.Dur) * time.Microsecond
			sr.phases[ev.Name] += d
			if ev.Name == obs.PhaseStep.String() {
				sr.stepNs[lastAlgo[ev.Tid]] += d
			}
		}
	}
}

func meanDegree(g *graph.G) float64 { return ratio(2*float64(g.M()), float64(g.N())) }

// importTraces turns the shards' obs events into spans under their GridRun
// spans and folds their phase timings into sr.
func (sr *sweepRun) importTraces(rec *recorder, spec batch.Spec) error {
	graphs, err := batch.BuildGraphs(spec)
	if err != nil {
		return err
	}
	for _, st := range sr.traces {
		events, err := obs.ReadEvents(st.events)
		if err != nil {
			return err
		}
		units := rec.importObs(events, st.base, st.span, trackGrid)
		sr.poolTail += poolTail(rec, units, st.span, spec.Workers)
		accumulatePhases(events, graphs, sr)
	}
	sr.traces = nil
	return nil
}

// coldSweep runs one measured sweep with a cold spectral cache, as a fresh
// lbbench process would have, and checks it.
// It returns the sweep and its root span.
func coldSweep(ctx context.Context, c *config, spec batch.Spec, i int, rec *recorder, o *outcome) (*sweepRun, int, error) {
	speccache.Shared().Reset()
	runtime.GC()
	root := rec.open(fmt.Sprintf("grid sweep %d", i), layerBench, trackMain, -1)
	sr, err := runGridShards(ctx, spec, filepath.Join(c.workDir, fmt.Sprintf("sweep-%d", i)), rec, root)
	rec.close(root)
	if err == nil {
		err = sr.importTraces(rec, spec)
	}
	if err != nil {
		return nil, root, err
	}
	failed, first := sr.failedCells()
	o.ops(len(sr.cells), failed)
	o.check("grid-sweep: no failed cells", checkNoFailedCells(len(sr.cells), failed, first))
	return sr, root, nil
}

// runGridSweep is the grid-sweep workload: repeated in-process journaled
// sweeps of sweepSpec for the run's budget.
func runGridSweep(ctx context.Context, c *config, rec *recorder, o *outcome) error {
	spec := sweepSpec(c)
	setup, err := sweepSetup(spec, setupReps)
	if err != nil {
		return err
	}
	o.set("setup_s", setup)
	o.set("topoparse.build_s", setup)

	// A traced run first measures one untraced sweep, the reference for
	// the tracing overhead.
	var ref *sweepRun
	if rec.on() {
		if ref, _, err = coldSweep(ctx, c, spec, -1, nil, o); err != nil {
			return err
		}
	}

	var runs []*sweepRun
	var att attribution
	var lookups, hits float64
	solves0 := spectral.SolveStats()
	start := time.Now()
	for i := 0; ; i++ {
		sr, root, err := coldSweep(ctx, c, spec, i, rec, o)
		if err != nil {
			return err
		}
		if rec.on() {
			att.merge(rec.attribute(root))
		}
		st := speccache.Shared().Stats().Lambda2
		lookups += float64(st.Hits + st.Computes + st.DiskHits)
		hits += float64(st.Hits)
		if i == 0 {
			o.notef("grid-sweep: %d cells, merged journal sha256/64 %s (seed %d)", len(sr.cells), hash(sr.merged), c.seed)
		} else {
			o.check("grid-sweep: merged journal identical across sweeps", checkSameBytes(runs[0].merged, sr.merged))
		}
		runs = append(runs, sr)
		if c.deadline(start, sr.wall) {
			break
		}
	}
	if ref != nil {
		o.check("grid-sweep: traced sweep journal identical to untraced", checkSameBytes(ref.merged, runs[0].merged))
	}
	reportSweeps(o, runs, spec.UnitCount())

	// Per-layer numbers, per sweep (medians over the measured sweeps).
	reps := float64(len(runs))
	setSolves(o, solves0, reps)
	o.set("speccache.hit_ratio", ratio(hits, lookups))
	perSweep := func(f func(*sweepRun) float64) float64 {
		xs := make([]float64, len(runs))
		for i, sr := range runs {
			xs[i] = f(sr)
		}
		return median(xs)
	}
	walls := func(sr *sweepRun) []float64 {
		ws := make([]float64, len(sr.cells))
		for i, ct := range sr.cells {
			ws[i] = ct.wall.Seconds()
		}
		return ws
	}
	o.set("batch.unit_s_p50", perSweep(func(sr *sweepRun) float64 { return median(walls(sr)) }))
	o.set("batch.unit_s_max", perSweep(func(sr *sweepRun) float64 { return maxOf(walls(sr)) }))
	o.set("batch.sink_cell_s", perSweep(func(sr *sweepRun) float64 { return sr.sinkTime.Seconds() }))
	o.set("batch.journal_bytes", perSweep(func(sr *sweepRun) float64 { return float64(sr.journalB) }))
	o.set("batch.merge_s", perSweep(func(sr *sweepRun) float64 { return sr.mergeTime.Seconds() }))
	o.set("batch.pool_tail_s", perSweep(func(sr *sweepRun) float64 { return sr.poolTail.Seconds() }))
	phase := func(p obs.Phase) float64 {
		return perSweep(func(sr *sweepRun) float64 { return sr.phases[p.String()].Seconds() })
	}
	// Open runs inside GridRun: session.open_s stays 0 and its λ₂ share is
	// spectral.lambda2_s.
	o.set("spectral.lambda2_s", phase(obs.PhaseSpectra))
	setRoundPhases(o, phase(obs.PhaseStep), phase(obs.PhaseCommit), phase(obs.PhaseInject), phase(obs.PhaseGraphSwap))
	stepNs, work, deg := map[string]time.Duration{}, map[string]float64{}, map[string]float64{}
	for _, sr := range runs {
		for k, v := range sr.stepNs {
			stepNs[k] += v
		}
		for k, v := range sr.stepWork {
			work[k] += v
		}
		for k, v := range sr.degWork {
			deg[k] += v
		}
	}
	setStepperRates(o, stepNs, work, deg)
	if ref != nil {
		setTraceMetrics(c, o, att, median(sweepWalls(runs)), ref.wall.Seconds())
	}
	return nil
}

// reportSweeps sets the end-to-end metrics of a sweep workload from its
// measured sweeps (medians over sweeps). Every cell of a sweep arrives at
// its start; it is committed when its line is in a shard journal and
// acknowledged when its shard has journaled its first result.
func reportSweeps(o *outcome, runs []*sweepRun, units int) {
	var cps, wall, nrps, p50, p99, ack []float64
	for _, sr := range runs {
		w := sr.wall.Seconds()
		cps = append(cps, float64(units)/w)
		wall = append(wall, w)
		nrps = append(nrps, sr.nodeRounds/w)
		commits := make([]float64, len(sr.cells))
		acks := make([]float64, len(sr.cells))
		for i, ct := range sr.cells {
			commits[i] = ms(ct.commit)
			acks[i] = ms(ct.ack)
		}
		p50 = append(p50, quantile(commits, 0.5))
		p99 = append(p99, quantile(commits, 0.99))
		ack = append(ack, quantile(acks, 0.99))
	}
	o.set("cells_per_s", median(cps))
	o.set("max_ok_rate", median(cps))
	o.set("time_to_eps_s", median(wall))
	o.set("node_rounds_per_s", median(nrps))
	o.set("a2c_p50_ms", median(p50))
	o.set("a2c_p99_ms", median(p99))
	o.set("ack_p99_ms", median(ack))
	o.notef("sweeps: %d × %d cells, wall s %.3f", len(runs), units, wall)
}

func sweepWalls(runs []*sweepRun) []float64 {
	ws := make([]float64, len(runs))
	for i, sr := range runs {
		ws[i] = sr.wall.Seconds()
	}
	return ws
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
