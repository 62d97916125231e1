package orchestrator

import (
	"context"
	"fmt"
	"io"

	"repro/internal/batch"
	"repro/internal/core"
)

// MergeReportFrom reassembles the given shard journals into the final
// report and renders it to stdout in the given format ("table", "csv" or
// "json") — the automatic last step of a supervised sweep, and the same
// output a single-process run of the plan's spec would print, byte for
// byte. The journals are the planned shards plus whatever sub-range
// journals steals minted. Because sub-range journals carry the same global
// unit indices the victim would have written, the merge is
// indistinguishable from an uninterrupted run.
//
// The classic path replays the merged journal through the resume engine, so
// any units the journals somehow miss re-run in-process rather than leaving
// holes. With streamAgg the journals fold straight into the incremental
// aggregator (nothing re-runs, no cell materializes) and a missing shard is
// an error instead.
//
// failedUnits counts journaled cells carrying errors — the caller's exit
// code distinguishes a complete-but-imperfect figure (some units failed)
// from a clean one exactly as a single-process sweep does.
func (p *Plan) MergeReportFrom(ctx context.Context, paths []string, format string, streamAgg bool, stdout, stderr io.Writer) (failedUnits int, err error) {
	if streamAgg {
		return p.mergeAggregates(paths, format, stdout, stderr)
	}
	journal, stats, err := batch.ReadMergedJournals(paths...)
	if err != nil {
		return 0, err
	}
	if stats.Dropped > 0 {
		fmt.Fprintf(stderr, "orchestrator: merge: dropped %d corrupt/truncated line(s); those units re-run\n", stats.Dropped)
	}
	report, runErr := core.GridRun(ctx, p.Spec, core.GridResume(journal))
	if report == nil {
		return 0, runErr
	}
	if err := report.Render(format, stdout); err != nil {
		return report.Failed(), fmt.Errorf("orchestrator: rendering merged report: %w", err)
	}
	if runErr != nil {
		return report.Failed(), runErr
	}
	return report.Failed(), nil
}

// mergeAggregates is the streaming-only render: fold the journals into an
// AggSink and print the aggregate report.
func (p *Plan) mergeAggregates(paths []string, format string, stdout, stderr io.Writer) (int, error) {
	agg := batch.NewAggSink()
	stats, err := batch.MergeJournals(agg, paths...)
	if err != nil {
		return 0, err
	}
	rep := agg.Report()
	if err := rep.Render(format, stdout); err != nil {
		return rep.Failed, fmt.Errorf("orchestrator: rendering merged aggregates: %w", err)
	}
	if stats.Dropped > 0 {
		fmt.Fprintf(stderr, "orchestrator: merge: dropped %d corrupt/truncated line(s)\n", stats.Dropped)
	}
	if rep.Missing() > 0 {
		if shards := agg.MissingShards(); len(shards) > 0 {
			fmt.Fprintf(stderr, "orchestrator: shard(s) %v never merged in\n", shards)
		}
		return rep.Failed, fmt.Errorf("orchestrator: merge is incomplete: %d of %d units missing", rep.Missing(), rep.ExpectedUnits)
	}
	return rep.Failed, nil
}
