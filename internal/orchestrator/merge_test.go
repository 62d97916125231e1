package orchestrator

import (
	"bytes"
	"context"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/core"
)

// writePlanJournals runs every shard of the plan through the real engine,
// journaling exactly as the spawned subprocesses would.
func writePlanJournals(t *testing.T, p *Plan) {
	t.Helper()
	for _, sh := range p.Shards {
		sink, err := batch.CreateJSONL(sh.Journal)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.GridRun(context.Background(), p.Spec, core.GridShard(sh.Index, sh.Count), core.GridSink(sink)); err != nil {
			t.Fatal(err)
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMergeReportByteIdentical is the acceptance property end to end in
// process: the orchestrator's automatic merge renders the same bytes a
// single-process sweep prints, for the classic report and the streaming
// aggregates alike.
func TestMergeReportByteIdentical(t *testing.T) {
	spec := testSpec()
	p, err := NewPlan(spec, 3, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	writePlanJournals(t, p)

	full, err := core.GridRun(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := full.RenderCSV(&want); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	failed, err := p.MergeReportFrom(context.Background(), p.JournalPaths(), "csv", false, &got, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if failed != 0 {
		t.Fatalf("%d failed units", failed)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("merged report differs from single-process sweep:\n--- merged\n%s\n--- full\n%s", got.String(), want.String())
	}

	// Streaming-only aggregates: same property against the live fold.
	agg := batch.NewAggSink()
	if _, err := core.GridRun(context.Background(), spec, core.GridStreamOnly(), core.GridSink(agg)); err != nil {
		t.Fatal(err)
	}
	want.Reset()
	if err := agg.Report().RenderCSV(&want); err != nil {
		t.Fatal(err)
	}
	got.Reset()
	if _, err := p.MergeReportFrom(context.Background(), p.JournalPaths(), "csv", true, &got, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("merged stream-agg render differs from the live streaming run")
	}
}

// TestSupervisorDoesNotRestartCompleteShard: a child that exits non-zero
// with a COMPLETE journal ran every unit (some just failed) — restarting
// would re-run the same deterministic failures, so the supervisor must hand
// the journal straight to the merge instead. (lbbench exits 1 when the
// figure has holes; that is not a crash.)
func TestSupervisorDoesNotRestartCompleteShard(t *testing.T) {
	p, err := NewPlan(testSpec(), 2, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	writePlanJournals(t, p) // complete journals already on disk
	var log bytes.Buffer
	s := &Supervisor{
		Plan:    p,
		Command: stubCommand(t, "exit 1"), // "figure has holes" exit
		Policy:  Policy{MaxRetries: -1, Interval: 10 * time.Millisecond},
		Log:     &log,
	}
	if err := s.Run(context.Background()); err != nil {
		t.Fatalf("Run treated a complete shard as a crash: %v\nlog:\n%s", err, log.String())
	}
	if strings.Contains(log.String(), "restarting with -resume") {
		t.Fatalf("complete shard was restarted:\n%s", log.String())
	}
	if !strings.Contains(log.String(), "not restarting") {
		t.Fatalf("complete-journal exit not reported:\n%s", log.String())
	}
}

// TestMergeReportRerunsGaps: a journal cut short (the shard died and was
// never resumed) does not hole the classic report — the resume engine
// re-runs the missing units in-process during the merge.
func TestMergeReportRerunsGaps(t *testing.T) {
	spec := testSpec()
	p, err := NewPlan(spec, 2, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	writePlanJournals(t, p)

	// Truncate shard 1's journal to its header + first cell.
	j, err := batch.ReadJournalFile(p.Shards[1].Journal)
	if err != nil {
		t.Fatal(err)
	}
	sink, err := batch.ReplaceJSONL(p.Shards[1].Journal)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Spec(j.Specs[0]); err != nil {
		t.Fatal(err)
	}
	if err := sink.Cell(j.Cells[0]); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	full, err := core.GridRun(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	var want, got bytes.Buffer
	if err := full.RenderCSV(&want); err != nil {
		t.Fatal(err)
	}
	if _, err := p.MergeReportFrom(context.Background(), p.JournalPaths(), "csv", false, &got, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("gap re-run merge differs from single-process sweep")
	}

	// The streaming path re-runs nothing, so the same gap is a loud error.
	if _, err := p.MergeReportFrom(context.Background(), p.JournalPaths(), "csv", true, io.Discard, io.Discard); err == nil {
		t.Fatal("stream-agg merge of an incomplete journal set succeeded")
	}
}
