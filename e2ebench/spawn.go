package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/batch"
	"repro/internal/orchestrator"
	"repro/internal/speccache"
)

// timedLauncher wraps the local launcher so the benchmark sees each
// attempt from outside: when it was launched, how long the fork/exec took
// and when the child exited.
type timedLauncher struct {
	inner  *orchestrator.LocalLauncher
	rec    *recorder
	parent int

	mu       sync.Mutex
	launches []time.Duration
	walls    []time.Duration
	started  map[orchestrator.Handle]launchInfo
	tasks    map[string]int
}

type launchInfo struct {
	at    time.Time
	label string
	track int64
}

func (l *timedLauncher) Name() string { return l.inner.Name() }
func (l *timedLauncher) Slots() int   { return l.inner.Slots() }

func (l *timedLauncher) Launch(ctx context.Context, t *orchestrator.Task, args []string) (orchestrator.Handle, error) {
	t0 := time.Now()
	h, err := l.inner.Launch(ctx, t, args)
	t1 := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	track := int64(trackChild + t.Shard.Index)
	l.rec.add("launch "+t.Label, layerOrchestrator, track, l.parent, t0, t1, nil)
	l.rec.nameTrack(track, "shard child "+t.Label)
	l.launches = append(l.launches, t1.Sub(t0))
	l.tasks[t.Label]++
	if err == nil {
		l.started[h] = launchInfo{at: t1, label: t.Label, track: track}
	}
	return h, err
}

func (l *timedLauncher) Signal(h orchestrator.Handle, sig os.Signal) error {
	return l.inner.Signal(h, sig)
}

func (l *timedLauncher) Wait(h orchestrator.Handle) error {
	err := l.inner.Wait(h)
	end := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	if li, ok := l.started[h]; ok {
		// The child process runs the batch engine (lbbench -grid -shard).
		l.rec.add("lbbench "+li.label, layerBatch, li.track, l.parent, li.at, end, nil)
		l.walls = append(l.walls, end.Sub(li.at))
	}
	return err
}

func (l *timedLauncher) FetchJournal(t *orchestrator.Task) error { return l.inner.FetchJournal(t) }

func (l *timedLauncher) restarts() int {
	n := 0
	for _, k := range l.tasks {
		n += k - 1
	}
	return n
}

// journalWatch tails shard journals while children write them and
// timestamps each cell as it appears; a shard's first cell is its
// acknowledgement. The journals are polled every millisecond until every
// shard has a cell, then every ten.
type journalWatch struct {
	tailers []*batch.JournalTailer
	start   time.Time
	stop    chan struct{}
	done    chan struct{}

	cells  [][]time.Duration
	failed int   // cells journaled with an error, at the last poll
	err    error // the first failed poll
}

func watchJournals(paths []string, start time.Time) *journalWatch {
	w := &journalWatch{
		start: start, stop: make(chan struct{}), done: make(chan struct{}),
		cells: make([][]time.Duration, len(paths)),
	}
	for _, p := range paths {
		w.tailers = append(w.tailers, batch.NewJournalTailer(p))
	}
	go w.loop()
	return w
}

func (w *journalWatch) loop() {
	defer close(w.done)
	scan := func() (started int) {
		now := time.Since(w.start)
		w.failed = 0
		for i, t := range w.tailers {
			p, err := t.Scan()
			if err != nil && w.err == nil {
				w.err = err
			}
			for len(w.cells[i]) < p.Cells {
				w.cells[i] = append(w.cells[i], now)
			}
			w.failed += p.Failed
			if p.Cells > 0 {
				started++
			}
		}
		return started
	}
	for {
		period := 10 * time.Millisecond
		if scan() < len(w.tailers) {
			period = time.Millisecond
		}
		select {
		case <-w.stop:
			scan() // lines written since the last poll
			return
		case <-time.After(period):
		}
	}
}

// finish stops the poller after a last look at the journals.
func (w *journalWatch) finish() error {
	close(w.stop)
	<-w.done
	return w.err
}

// spawnRun is one supervised, merged sweep.
type spawnRun struct {
	wall      time.Duration
	merged    []byte
	mergeTime time.Duration
	journalB  int64
	cells     []cellTimes
	failed    int // cells journaled with an error
	launcher  *timedLauncher
	root      int
}

// spawnOnce runs spec through orchestrator.Supervisor with a local launcher
// of width sweepShards, in a fresh directory with a fresh spectral spill
// the children share, then merges the shard journals.
func spawnOnce(ctx context.Context, c *config, spec batch.Spec, i int, rec *recorder) (*spawnRun, error) {
	dir := filepath.Join(c.workDir, fmt.Sprintf("spawn-%d", i))
	spill := filepath.Join(dir, "speccache")
	if err := os.MkdirAll(spill, 0o755); err != nil {
		return nil, err
	}
	childSpec := spec
	childSpec.Workers = 1 // sweepShards children × 1 worker = nproc
	plan, err := orchestrator.NewPlan(childSpec, sweepShards, filepath.Join(dir, "journals"))
	if err != nil {
		return nil, err
	}
	runtime.GC()
	root := rec.open(fmt.Sprintf("spawn sweep %d", i), layerBench, trackMain, -1)
	sup := rec.open("Supervisor.Run", layerOrchestrator, trackMain, root)
	tl := &timedLauncher{
		inner:   &orchestrator.LocalLauncher{Command: []string{c.lbbench}, Width: sweepShards},
		rec:     rec,
		parent:  sup,
		started: map[orchestrator.Handle]launchInfo{},
		tasks:   map[string]int{},
	}
	var log bytes.Buffer
	s := &orchestrator.Supervisor{Plan: plan, Launchers: []orchestrator.Launcher{tl}, Log: &log}

	// The children inherit the environment; this process's own spectral
	// cache read the variable at start-up and stays memory-only.
	if err := os.Setenv(speccache.EnvDiskDir, spill); err != nil {
		return nil, err
	}
	start := time.Now()
	watch := watchJournals(plan.JournalPaths(), start)
	runErr := s.Run(ctx)
	watchErr := watch.finish()
	if err := os.Unsetenv(speccache.EnvDiskDir); err != nil {
		return nil, err
	}
	rec.close(sup)
	sr := &spawnRun{launcher: tl, root: root, failed: watch.failed}
	if runErr != nil {
		rec.close(root)
		return nil, fmt.Errorf("supervisor: %v\n%s", runErr, log.String())
	}
	if watchErr != nil {
		rec.close(root)
		return nil, fmt.Errorf("tailing shard journals: %v", watchErr)
	}
	sr.merged, sr.mergeTime, err = mergeShards(plan.JournalPaths(), filepath.Join(dir, "merged.jsonl"), rec, root, layerOrchestrator)
	sr.wall = time.Since(start)
	rec.close(root)
	if err != nil {
		return nil, err
	}
	for i, p := range plan.JournalPaths() {
		fi, err := os.Stat(p)
		if err != nil {
			return nil, err
		}
		sr.journalB += fi.Size()
		for _, t := range watch.cells[i] {
			sr.cells = append(sr.cells, cellTimes{commit: t, ack: watch.cells[i][0]})
		}
	}
	return sr, nil
}

// runSpawnSweep is the spawn-sweep workload: the grid-sweep spec run as
// lbbench shard processes under the work-stealing supervisor, repeated for
// the run's budget. Its merged journal must equal the in-process sweep's
// byte for byte.
func runSpawnSweep(ctx context.Context, c *config, rec *recorder, o *outcome) error {
	if c.lbbench == "" {
		return fmt.Errorf("spawn-sweep needs --lbbench (an lbbench binary built from this tree)")
	}
	spec := sweepSpec(c)
	setup, err := timeSetup(setupReps, func() error {
		if _, err := sweepSetup(spec, 1); err != nil {
			return err
		}
		_, err := orchestrator.NewPlan(spec, sweepShards, c.workDir)
		return err
	})
	if err != nil {
		return err
	}
	o.set("setup_s", setup)
	o.set("topoparse.build_s", setup)

	// The in-process sweep of the same spec is the reference output. It
	// also supplies the node-rounds: equal journals mean equal rounds.
	ref, _, err := coldSweep(ctx, c, spec, -1, nil, o)
	if err != nil {
		return err
	}
	o.notef("spawn-sweep: reference in-process sweep %d cells, merged journal sha256/64 %s (seed %d)", len(ref.cells), hash(ref.merged), c.seed)

	// A traced run first measures one untraced spawn, the reference for the
	// tracing overhead.
	var refSpawn *spawnRun
	if rec.on() {
		if refSpawn, err = spawnOnce(ctx, c, spec, -1, nil); err != nil {
			return err
		}
	}

	var runs []*spawnRun
	var att attribution
	start := time.Now()
	for i := 0; ; i++ {
		sr, err := spawnOnce(ctx, c, spec, i, rec)
		if err != nil {
			return err
		}
		tl := sr.launcher
		o.ops(len(tl.launches), tl.restarts())
		o.ops(len(sr.cells), sr.failed)
		o.check("spawn-sweep: every cell seen in a shard journal", checkCount(len(sr.cells), spec.UnitCount()))
		o.check("spawn-sweep: merged journal identical to the in-process sweep", checkSameBytes(ref.merged, sr.merged))
		if rec.on() {
			att.merge(rec.attribute(sr.root))
		}
		runs = append(runs, sr)
		if c.deadline(start, sr.wall) {
			break
		}
	}

	sweeps := make([]*sweepRun, len(runs))
	for i, sr := range runs {
		sweeps[i] = &sweepRun{wall: sr.wall, cells: sr.cells, nodeRounds: ref.nodeRounds}
	}
	reportSweeps(o, sweeps, spec.UnitCount())

	var launch, child, merge, restarts, journalB []float64
	for _, sr := range runs {
		launch = append(launch, median(durations(sr.launcher.launches)))
		child = append(child, median(durations(sr.launcher.walls)))
		merge = append(merge, sr.mergeTime.Seconds())
		restarts = append(restarts, float64(sr.launcher.restarts()))
		journalB = append(journalB, float64(sr.journalB))
	}
	o.set("orchestrator.launch_s", median(launch))
	o.set("orchestrator.child_wall_s", median(child))
	o.set("orchestrator.merge_s", median(merge))
	o.set("orchestrator.restarts", sum(restarts))
	o.set("batch.journal_bytes", median(journalB))
	// The layers below the orchestrator run inside the children, out of
	// this process's sight; they report 0 here.
	if refSpawn != nil {
		setTraceMetrics(c, o, att, median(sweepWalls(sweeps)), refSpawn.wall.Seconds())
	}
	return nil
}

func durations(ds []time.Duration) []float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return xs
}
