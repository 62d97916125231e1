package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/batch"
)

func gridSpec() batch.Spec {
	return batch.Spec{
		Topologies: []string{"cycle", "torus", "hypercube"},
		Algorithms: []string{"diffusion", "dimexchange", "randpair"},
		Modes:      []string{"continuous", "discrete"},
		Workloads:  []string{"spike", "uniform"},
		Seeds:      []int64{1, 2},
		N:          24,
	}
}

func TestGridConvergesEverywhere(t *testing.T) {
	rep, err := GridRun(context.Background(), gridSpec())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() != 0 {
		t.Fatalf("%d units failed", rep.Failed())
	}
	for _, c := range rep.Cells {
		if !c.Converged {
			t.Fatalf("%s did not converge (Φ %v → %v in %d rounds)", c.Key(), c.PhiStart, c.PhiEnd, c.Rounds)
		}
		if c.Bound > 0 && float64(c.Rounds) > c.Bound {
			t.Fatalf("%s: %d rounds exceeds %s bound %v", c.Key(), c.Rounds, c.BoundName, c.Bound)
		}
		if c.RMSDiscrepancy < 0 {
			t.Fatalf("%s: negative discrepancy", c.Key())
		}
	}
	// Diffusion cells must carry their theorem bound.
	for _, c := range rep.Cells {
		if c.Algorithm == "diffusion" && c.WorkloadName == "spike" && c.BoundName == "" {
			t.Fatalf("%s: missing theorem bound", c.Key())
		}
	}
}

func TestGridDeterministicAcrossWorkers(t *testing.T) {
	render := func(workers int) []byte {
		spec := gridSpec()
		spec.Workers = workers
		rep, err := GridRun(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := rep.RenderCSV(&b); err != nil {
			t.Fatal(err)
		}
		if err := rep.RenderJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	if !bytes.Equal(render(1), render(8)) {
		t.Fatal("aggregated grid output differs between workers=1 and workers=8")
	}
}

func TestGridRejectsUnknownAlgorithm(t *testing.T) {
	spec := gridSpec()
	spec.Algorithms = []string{"diffusion", "gradientdescent"}
	if _, err := GridRun(context.Background(), spec); err == nil {
		t.Fatal("unknown algorithm must fail the sweep up front")
	}
}

func TestGridUnsupportedComboIsCellError(t *testing.T) {
	// firstorder is continuous-only: its discrete cells must error without
	// sinking the rest of the sweep.
	spec := batch.Spec{
		Topologies: []string{"cycle"},
		Algorithms: []string{"diffusion", "firstorder"},
		Modes:      []string{"continuous", "discrete"},
		Workloads:  []string{"spike"},
		N:          16,
	}
	rep, err := GridRun(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	var bad, good int
	for _, c := range rep.Cells {
		switch {
		case c.Algorithm == "firstorder" && c.Mode == "discrete":
			bad++
			if !strings.Contains(c.Err, "continuous mode only") {
				t.Fatalf("expected mode error, got %q", c.Err)
			}
		default:
			good++
			if c.Err != "" || !c.Converged {
				t.Fatalf("healthy cell %s affected: %+v", c.Key(), c)
			}
		}
	}
	if bad != 1 || good != 3 {
		t.Fatalf("bad=%d good=%d, want 1/3", bad, good)
	}
}

// cancellingSink cancels the sweep after delivering `after` cells — the
// deterministic stand-in for a Ctrl-C halfway through a grid.
type cancellingSink struct {
	inner  batch.Sink
	after  int
	seen   int
	cancel context.CancelFunc
}

func (s *cancellingSink) Cell(c batch.Cell) error {
	s.seen++
	if s.seen == s.after {
		s.cancel()
	}
	return s.inner.Cell(c)
}

func (s *cancellingSink) Close() error { return s.inner.Close() }

// TestGridCancelLeavesResumableJournal interrupts a real balancing
// sweep mid-flight and checks the contract the CLI's crash-and-resume
// recipe rests on: the run returns ctx.Err(), the journal it leaves is
// valid JSONL covering every unit (clean cells plus cancellation-error
// cells), and resuming from it reproduces the uninterrupted run's CSV and
// JSON byte-for-byte.
func TestGridCancelLeavesResumableJournal(t *testing.T) {
	spec := gridSpec()

	render := func(rep *batch.Report) []byte {
		var b bytes.Buffer
		if err := rep.RenderCSV(&b); err != nil {
			t.Fatal(err)
		}
		if err := rep.RenderJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	fullRep, err := GridRun(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	fullOut := render(fullRep)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	journalPath := filepath.Join(t.TempDir(), "cells.jsonl")
	inner, err := batch.CreateJSONL(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	sink := &cancellingSink{
		inner:  inner,
		after:  len(fullRep.Cells) / 2,
		cancel: cancel,
	}
	// Serial execution makes the cut deterministic: with a pool, a slow
	// early unit can hold back the sequencer until every other unit has
	// already run, so the cancel would land after the sweep finished.
	partialSpec := spec
	partialSpec.Workers = 1
	partialRep, err := GridRun(ctx, partialSpec, GridSink(sink))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted sweep returned %v, want context.Canceled", err)
	}
	if partialRep == nil || partialRep.Failed() == 0 {
		t.Fatal("interrupted sweep reports no cancelled units")
	}

	journalBytes, err := os.ReadFile(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	journal, err := batch.ReadJournal(bytes.NewReader(journalBytes))
	if err != nil || journal.Dropped != 0 {
		t.Fatalf("interrupted journal invalid: dropped=%d err=%v", journal.Dropped, err)
	}
	if len(journal.Cells) != len(fullRep.Cells) {
		t.Fatalf("journal covers %d of %d units", len(journal.Cells), len(fullRep.Cells))
	}
	clean := 0
	for _, c := range journal.Cells {
		if c.Err == "" {
			clean++
		} else if !strings.Contains(c.Err, context.Canceled.Error()) {
			t.Fatalf("unexpected journal error %q", c.Err)
		}
	}
	if clean == 0 || clean == len(journal.Cells) {
		t.Fatalf("journal has %d clean cells of %d — not a mid-sweep cut", clean, len(journal.Cells))
	}

	for _, workers := range []int{1, 8} {
		respec := spec
		respec.Workers = workers
		resumed, err := GridRun(context.Background(), respec, GridResume(journal))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(render(resumed), fullOut) {
			t.Fatalf("workers=%d: resumed grid differs from uninterrupted run", workers)
		}
	}
}

// TestGridRejectsBadSpecUpFront exercises the Validate path through
// the public grid API: empty dimensions and duplicate seeds must fail
// before any unit runs.
func TestGridRejectsBadSpecUpFront(t *testing.T) {
	for name, mutate := range map[string]func(*batch.Spec){
		"empty topologies": func(s *batch.Spec) { s.Topologies = nil },
		"duplicate seeds":  func(s *batch.Spec) { s.Seeds = []int64{1, 1} },
		"duplicate mode":   func(s *batch.Spec) { s.Modes = []string{"continuous", "continuous"} },
	} {
		spec := gridSpec()
		mutate(&spec)
		if _, err := GridRun(context.Background(), spec); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
}

// TestGridShardedMergeByteIdentical drives the whole sharded recipe
// through the real balancer: m shard processes journal their slices,
// MergeJournals reassembles them, and the resumed report matches a
// single-process sweep byte for byte without re-running a unit.
func TestGridShardedMergeByteIdentical(t *testing.T) {
	spec := batch.Spec{
		Topologies: []string{"cycle", "star"},
		Algorithms: []string{"diffusion", "dimexchange"},
		Modes:      []string{"continuous"},
		Workloads:  []string{"spike", "uniform"},
		Seeds:      []int64{1, 2},
		N:          16,
	}
	full, err := GridRun(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	var fullOut bytes.Buffer
	if err := full.RenderCSV(&fullOut); err != nil {
		t.Fatal(err)
	}

	const m = 3
	dir := t.TempDir()
	paths := make([]string, m)
	for i := 0; i < m; i++ {
		paths[i] = filepath.Join(dir, fmt.Sprintf("s%d.jsonl", i))
		sink, err := batch.CreateJSONL(paths[i])
		if err != nil {
			t.Fatal(err)
		}
		shardRep, err := GridRun(context.Background(), spec, GridShard(i, m), GridSink(sink))
		if err != nil {
			t.Fatal(err)
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		for _, c := range shardRep.Cells {
			if c.Index%m != i {
				t.Fatalf("shard %d ran foreign unit %d", i, c.Index)
			}
		}
	}

	journal, _, err := batch.ReadMergedJournals(paths...)
	if err != nil {
		t.Fatal(err)
	}
	if len(journal.Cells) != len(full.Cells) {
		t.Fatalf("merged %d cells, want %d", len(journal.Cells), len(full.Cells))
	}
	merged, err := GridRun(context.Background(), spec, GridResume(journal))
	if err != nil {
		t.Fatal(err)
	}
	var mergedOut bytes.Buffer
	if err := merged.RenderCSV(&mergedOut); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mergedOut.Bytes(), fullOut.Bytes()) {
		t.Fatal("merged sharded sweep differs from single-process sweep")
	}
}

// TestGridStreamAggMatchesReport: the streaming-only path must fold
// the same aggregates the materialized report computes, through the real
// balancer.
func TestGridStreamAggMatchesReport(t *testing.T) {
	spec := batch.Spec{
		Topologies: []string{"cycle", "torus"},
		Algorithms: []string{"diffusion", "randpair"},
		Modes:      []string{"continuous"},
		Workloads:  []string{"spike"},
		Seeds:      []int64{1, 2},
		N:          16,
	}
	rep, err := GridRun(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	agg := batch.NewAggSink()
	if _, err := GridRun(context.Background(), spec, GridStreamOnly(), GridSink(agg)); err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(rep.Aggregates)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(agg.Report().Aggregates)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("streamed aggregates differ:\n%s\nvs\n%s", got, want)
	}
	// A bad spec is rejected before anything runs, like the other entries.
	bad := spec
	bad.Algorithms = []string{"nosuchalgo"}
	if _, err := GridRun(context.Background(), bad, GridStreamOnly(), GridSink(batch.NewAggSink())); err == nil {
		t.Fatal("streaming-only GridRun accepted an unknown algorithm")
	}
}
