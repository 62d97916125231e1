package batch

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/trace"
)

// AggSink folds the sweep's statistics incrementally as cells arrive: the
// per-grid-cell Aggregates (bound ratios, RMS discrepancy, convergence
// counts across seeds) plus per-dimension marginals (the same statistics
// collapsed onto each topology, algorithm, mode, workload and seed value).
// No cell is ever retained, so a report can render straight from a journal
// stream — or from a live sweep via RunStream — with memory proportional to
// the number of distinct grid cells and dimension values, independent of
// the unit (seed × cell) count.
//
// The folding arithmetic is Aggregate.fold/finalize — the exact sequence
// Report.aggregate applies to materialized cells — and cells always reach a
// sink in expansion order (the engine's sequencer guarantees it for live
// sweeps, MergeJournals' index-ordered merge for shard journals), so
// AggSink's aggregates are bit-identical to a MemorySink-derived Report's
// for any worker count and any shard split.
type AggSink struct {
	spec       *Spec
	shardsSeen map[[2]int]bool
	expected   int
	units      int
	failed     int

	index map[string]int // CellKey → position in aggs, first-seen order
	aggs  []Aggregate
	mdex  map[string]int // dimension\x00value → position in margs
	margs []marginalAcc
}

// marginalAcc is one in-progress marginal: the running sums of Aggregate,
// tagged with the dimension rank and value the cells were collapsed onto.
type marginalAcc struct {
	dim   int
	value string
	seen  int // insertion order, for a stable sort within a dimension
	agg   Aggregate
}

// marginalDims names the collapsed dimensions in report order.
var marginalDims = [...]string{"topology", "algorithm", "mode", "workload", "scenario", "seed"}

// NewAggSink returns an empty incremental aggregator.
func NewAggSink() *AggSink {
	return &AggSink{
		shardsSeen: make(map[[2]int]bool),
		index:      make(map[string]int),
		mdex:       make(map[string]int),
	}
}

// Spec records the run parameters (implements SpecWriter). The first spec
// fixes the grid; every later one — shard journals carry one header each —
// must describe the same grid or the fold would silently mix incomparable
// outcomes. The completeness target is the grid's full expansion: folding a
// single shard (or a merge missing one) reports the unfolded remainder as
// missing, because the figure the aggregates describe is the whole grid.
func (s *AggSink) Spec(spec Spec) error {
	spec = spec.withDefaults()
	if s.spec == nil {
		first := spec
		s.spec = &first
		s.expected = spec.UnitCount()
	} else if err := SameGrid(*s.spec, spec); err != nil {
		return err
	}
	s.shardsSeen[[2]int{spec.ShardIndex, spec.ShardCount}] = true
	return nil
}

// MissingShards lists the shard indexes the seen headers' shard count
// declares but no folded journal covered — the "you merged 2 of 3 shards"
// diagnostic. Empty when unsharded, complete, or when headers disagree on
// the shard count (no single split to be complete against).
func (s *AggSink) MissingShards() []int {
	m := 0
	for id := range s.shardsSeen {
		switch {
		case id[1] == 0:
			return nil // an unsharded journal covers the whole grid itself
		case m == 0:
			m = id[1]
		case id[1] != m:
			return nil
		}
	}
	var missing []int
	for i := 0; i < m; i++ {
		if !s.shardsSeen[[2]int{i, m}] {
			missing = append(missing, i)
		}
	}
	return missing
}

// Cell folds one finished cell into the aggregates and marginals.
func (s *AggSink) Cell(c Cell) error {
	s.units++
	if c.Err != "" {
		s.failed++
	}
	key := c.CellKey()
	i, ok := s.index[key]
	if !ok {
		i = len(s.aggs)
		s.index[key] = i
		s.aggs = append(s.aggs, Aggregate{
			Topology:  c.Topology,
			Algorithm: c.Algorithm,
			Mode:      c.Mode,
			Workload:  c.WorkloadName,
			Scenario:  c.Scenario,
		})
	}
	s.aggs[i].fold(c)

	for dim, value := range [...]string{
		c.Topology, c.Algorithm, c.Mode, c.WorkloadName,
		scenarioDisplay(c.Scenario), fmt.Sprintf("s%d", c.Seed),
	} {
		s.marginal(dim, value).fold(c)
	}
	return nil
}

// marginal returns the accumulator for one (dimension, value), creating it
// in first-seen order.
func (s *AggSink) marginal(dim int, value string) *Aggregate {
	key := marginalDims[dim] + "\x00" + value
	i, ok := s.mdex[key]
	if !ok {
		i = len(s.margs)
		s.mdex[key] = i
		s.margs = append(s.margs, marginalAcc{dim: dim, value: value, seen: i})
	}
	return &s.margs[i].agg
}

// Close is a no-op: the accumulated report stays readable after the sweep.
func (s *AggSink) Close() error { return nil }

// Marginal is one row of a per-dimension summary: every cell of the sweep
// that carries the given dimension value, collapsed into the same statistics
// an Aggregate holds.
type Marginal struct {
	Dimension string `json:"dimension"`
	Value     string `json:"value"`
	Runs      int    `json:"runs"`
	Converged int    `json:"converged"`
	Failed    int    `json:"failed,omitempty"`

	MeanRounds     float64 `json:"mean_rounds"`
	SDRounds       float64 `json:"sd_rounds"`
	MeanBoundRatio float64 `json:"mean_bound_ratio,omitempty"`
	MeanRMS        float64 `json:"mean_rms_discrepancy"`
}

// AggReport is the streaming-only report: grid-cell aggregates and
// per-dimension marginals, but no cells — the rendering counterpart of
// Report for sweeps whose cells only ever lived in a journal.
type AggReport struct {
	Spec Spec `json:"spec"`
	// Units counts the cells folded in; ExpectedUnits is the grid's full
	// expansion size per the spec headers (0 when no header was seen), so
	// Units < ExpectedUnits flags a merge that is missing a shard or part of
	// one — or a single-shard stream, whose aggregates only cover its slice.
	// Failed counts folded cells that carried errors.
	Units         int `json:"units"`
	ExpectedUnits int `json:"expected_units,omitempty"`
	Failed        int `json:"failed,omitempty"`

	Aggregates []Aggregate `json:"aggregates"`
	Marginals  []Marginal  `json:"marginals"`
}

// Report finalizes a snapshot of the folded statistics. The sink keeps
// accumulating; Report can be called again after more cells.
func (s *AggSink) Report() *AggReport {
	r := &AggReport{
		Units:         s.units,
		ExpectedUnits: s.expected,
		Failed:        s.failed,
		Aggregates:    append([]Aggregate(nil), s.aggs...),
	}
	if s.spec != nil {
		r.Spec = *s.spec
		// A report folded over several shards describes the union, not the
		// first journal's slice.
		if len(s.shardsSeen) > 1 {
			r.Spec.ShardIndex, r.Spec.ShardCount = 0, 0
		}
	}
	for i := range r.Aggregates {
		r.Aggregates[i].finalize()
	}
	margs := append([]marginalAcc(nil), s.margs...)
	sort.SliceStable(margs, func(i, j int) bool {
		if margs[i].dim != margs[j].dim {
			return margs[i].dim < margs[j].dim
		}
		return margs[i].seen < margs[j].seen
	})
	r.Marginals = make([]Marginal, len(margs))
	for i, m := range margs {
		m.agg.finalize()
		r.Marginals[i] = Marginal{
			Dimension:      marginalDims[m.dim],
			Value:          m.value,
			Runs:           m.agg.Runs,
			Converged:      m.agg.Converged,
			Failed:         m.agg.Failed,
			MeanRounds:     m.agg.MeanRounds,
			SDRounds:       m.agg.SDRounds,
			MeanBoundRatio: m.agg.MeanBoundRatio,
			MeanRMS:        m.agg.MeanRMS,
		}
	}
	return r
}

// Missing is how many expected units have not been folded (0 when complete
// or when no spec header announced a target).
func (r *AggReport) Missing() int {
	if r.ExpectedUnits > r.Units {
		return r.ExpectedUnits - r.Units
	}
	return 0
}

// Table renders the grid-cell aggregates (same columns as
// Report.AggregateTable).
func (r *AggReport) Table() *trace.Table {
	return aggregateTable(fmt.Sprintf("streaming aggregates — %d units", r.Units), r.Aggregates)
}

// MarginalTable renders the per-dimension marginals.
func (r *AggReport) MarginalTable() *trace.Table {
	t := trace.NewTable("per-dimension marginals",
		"dimension", "value", "runs", "converged", "failed",
		"rounds (mean±sd)", "mean rounds/bound", "mean rms disc.")
	for _, m := range r.Marginals {
		ratio := "-"
		if m.MeanBoundRatio > 0 {
			ratio = fmt.Sprintf("%.4g", m.MeanBoundRatio)
		}
		t.AddRow(m.Dimension, m.Value,
			fmt.Sprintf("%d", m.Runs), fmt.Sprintf("%d", m.Converged),
			fmt.Sprintf("%d", m.Failed),
			fmt.Sprintf("%.4g±%.3g", m.MeanRounds, m.SDRounds), ratio,
			fmt.Sprintf("%.4g", m.MeanRMS))
	}
	return t
}

// RenderCSV writes the aggregate block (identical to the aggregate block of
// Report.RenderCSV) followed by a blank line and the marginal block. Bytes
// are identical for any worker count and any shard split.
func (r *AggReport) RenderCSV(w io.Writer) error {
	if err := aggregateCSV(r.Aggregates).RenderCSV(w); err != nil {
		return err
	}
	if _, err := io.WriteString(w, "\n"); err != nil {
		return err
	}
	margs := trace.NewTable("", "dimension", "value",
		"runs", "converged", "failed", "mean_rounds", "sd_rounds", "mean_bound_ratio", "mean_rms_discrepancy")
	for _, m := range r.Marginals {
		margs.AddRow(m.Dimension, m.Value,
			fmt.Sprintf("%d", m.Runs), fmt.Sprintf("%d", m.Converged), fmt.Sprintf("%d", m.Failed),
			fmt.Sprintf("%.8g", m.MeanRounds), fmt.Sprintf("%.8g", m.SDRounds),
			fmt.Sprintf("%.8g", m.MeanBoundRatio), fmt.Sprintf("%.8g", m.MeanRMS))
	}
	return margs.RenderCSV(w)
}

// RenderJSON writes the report as indented JSON (worker counts and wall
// times never enter, so the bytes are deterministic).
func (r *AggReport) RenderJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Render writes the report in the named format: "table" (aggregates plus
// marginals), "csv" or "json" — the single dispatch shared by the CLI's
// stream-agg paths and the orchestrator's merge, mirroring Report.Render.
func (r *AggReport) Render(format string, w io.Writer) error {
	switch format {
	case "table":
		if err := r.Table().Render(w); err != nil {
			return err
		}
		return r.MarginalTable().Render(w)
	case "csv":
		return r.RenderCSV(w)
	case "json":
		return r.RenderJSON(w)
	}
	return fmt.Errorf("batch: unknown format %q (want table, csv or json)", format)
}
