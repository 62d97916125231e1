package batch_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"

	"repro/internal/batch"
	"repro/internal/graph"
)

// messyRun is fakeRun with failures and unbounded cells mixed in, so the
// aggregation paths that treat Failed and bounded counts specially are
// actually exercised.
func messyRun(u batch.Unit, g *graph.G, loads []float64, algoSeed int64) (batch.Outcome, error) {
	if u.Index%11 == 3 {
		return batch.Outcome{}, errors.New("synthetic unit failure")
	}
	out, err := fakeRun(u, g, loads, algoSeed)
	if u.Index%5 == 0 {
		out.Bound, out.BoundName = 0, "" // no theorem applies
		out.Converged = false
	}
	return out, err
}

// TestAggSinkMatchesReportAggregates is the equivalence satellite: the
// incrementally folded aggregates must be bit-identical to the ones the
// materialized Report derives from a MemorySink's cells — for any worker
// count, including sweeps with failed and unbounded cells.
func TestAggSinkMatchesReportAggregates(t *testing.T) {
	for _, workers := range []int{1, 4, 8} {
		spec := okSpec()
		spec.Workers = workers
		mem := &batch.MemorySink{}
		agg := batch.NewAggSink()
		rep, err := batch.RunSink(context.Background(), spec, messyRun, batch.MultiSink{mem, agg})
		if err != nil {
			t.Fatal(err)
		}
		fromCells, err := json.Marshal(mem.Report(spec).Aggregates)
		if err != nil {
			t.Fatal(err)
		}
		streamed := agg.Report()
		fromStream, err := json.Marshal(streamed.Aggregates)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fromCells, fromStream) {
			t.Fatalf("workers=%d: streamed aggregates differ from MemorySink-derived ones:\n%s\nvs\n%s",
				workers, fromStream, fromCells)
		}
		if streamed.Units != len(rep.Cells) || streamed.Failed != rep.Failed() {
			t.Fatalf("workers=%d: counts off: units %d/%d failed %d/%d",
				workers, streamed.Units, len(rep.Cells), streamed.Failed, rep.Failed())
		}
		if streamed.ExpectedUnits != len(rep.Cells) || streamed.Missing() != 0 {
			t.Fatalf("workers=%d: expected %d missing %d for a complete sweep",
				workers, streamed.ExpectedUnits, streamed.Missing())
		}
	}
}

// TestAggSinkMarginals checks the per-dimension collapse: each topology's
// marginal covers exactly the units carrying that topology, and every
// dimension is present in declaration order.
func TestAggSinkMarginals(t *testing.T) {
	spec := okSpec()
	agg := batch.NewAggSink()
	if _, err := batch.RunSink(context.Background(), spec, fakeRun, agg); err != nil {
		t.Fatal(err)
	}
	rep := agg.Report()
	total := rep.Units
	perDim := map[string]int{}
	rank := map[string]int{"topology": 0, "algorithm": 1, "mode": 2, "workload": 3, "scenario": 4, "seed": 5}
	last := 0
	for _, m := range rep.Marginals {
		r, ok := rank[m.Dimension]
		if !ok {
			t.Fatalf("unknown marginal dimension %q", m.Dimension)
		}
		if r < last {
			t.Fatalf("marginals out of dimension order at %s/%s", m.Dimension, m.Value)
		}
		last = r
		perDim[m.Dimension] += m.Runs
		if m.Runs == 0 {
			t.Fatalf("empty marginal %s=%s", m.Dimension, m.Value)
		}
	}
	for dim, runs := range perDim {
		if runs != total {
			t.Fatalf("%s marginals cover %d units, want %d", dim, runs, total)
		}
	}
	// Spot-check one marginal's size: units per topology.
	want := total / len(spec.Topologies)
	for _, m := range rep.Marginals {
		if m.Dimension == "topology" && m.Runs != want {
			t.Fatalf("topology %s marginal has %d runs, want %d", m.Value, m.Runs, want)
		}
	}
}

// TestRunStreamMatchesRunSink: the streaming engine path (no in-process
// report) must deliver exactly the stream RunSink delivers, so the rendered
// aggregate bytes agree for any worker count.
func TestRunStreamMatchesRunSink(t *testing.T) {
	render := func(streaming bool, workers int) []byte {
		spec := okSpec()
		spec.Workers = workers
		agg := batch.NewAggSink()
		if streaming {
			if err := batch.RunStream(context.Background(), spec, messyRun, agg); err != nil {
				t.Fatal(err)
			}
		} else {
			if _, err := batch.RunSink(context.Background(), spec, messyRun, agg); err != nil {
				t.Fatal(err)
			}
		}
		var b bytes.Buffer
		if err := agg.Report().RenderCSV(&b); err != nil {
			t.Fatal(err)
		}
		if err := agg.Report().RenderJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	ref := render(false, 1)
	for _, workers := range []int{1, 8} {
		if got := render(true, workers); !bytes.Equal(got, ref) {
			t.Fatalf("workers=%d: RunStream aggregate output differs from RunSink's", workers)
		}
	}
	if err := batch.RunStream(context.Background(), okSpec(), fakeRun, nil); err == nil {
		t.Fatal("RunStream accepted a nil sink — the results would vanish")
	}
}

// TestMergedStreamAggregationByteIdentical is the acceptance criterion at
// package level: folding m shard journals through MergeJournals renders the
// same bytes as aggregating the uninterrupted single-process sweep, without
// the cells ever materializing.
func TestMergedStreamAggregationByteIdentical(t *testing.T) {
	spec := okSpec()
	direct := batch.NewAggSink()
	if err := batch.RunStream(context.Background(), spec, fakeRun, direct); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := direct.Report().RenderCSV(&want); err != nil {
		t.Fatal(err)
	}
	if err := direct.Report().RenderJSON(&want); err != nil {
		t.Fatal(err)
	}

	for _, m := range []int{3, 100} {
		paths := writeShardJournals(t, spec, m)
		merged := batch.NewAggSink()
		stats, err := batch.MergeJournals(merged, paths...)
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if stats.Cells != direct.Report().Units {
			t.Fatalf("m=%d: merged %d cells, want %d", m, stats.Cells, direct.Report().Units)
		}
		var got bytes.Buffer
		if err := merged.Report().RenderCSV(&got); err != nil {
			t.Fatal(err)
		}
		if err := merged.Report().RenderJSON(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("m=%d: merged aggregate render differs from single-process render", m)
		}
		if missing := merged.MissingShards(); len(missing) != 0 {
			t.Fatalf("m=%d: complete merge reports missing shards %v", m, missing)
		}
	}
}

// TestAggSinkDetectsMissingShards: merging 2 of 3 shards must flag both the
// missing unit count and the absent shard index, even though each folded
// journal is individually complete.
func TestAggSinkDetectsMissingShards(t *testing.T) {
	spec := okSpec()
	paths := writeShardJournals(t, spec, 3)
	agg := batch.NewAggSink()
	if _, err := batch.MergeJournals(agg, paths[0], paths[2]); err != nil {
		t.Fatal(err)
	}
	rep := agg.Report()
	if rep.Missing() == 0 {
		t.Fatal("merge missing a whole shard reports complete")
	}
	missing := agg.MissingShards()
	if len(missing) != 1 || missing[0] != 1 {
		t.Fatalf("MissingShards() = %v, want [1]", missing)
	}
	// The partial report still carries a shard-spanning spec: not the first
	// journal's slice.
	if rep.Spec.ShardCount != 0 {
		t.Fatalf("multi-shard report kept a single shard's identity: %d/%d", rep.Spec.ShardIndex, rep.Spec.ShardCount)
	}
}
