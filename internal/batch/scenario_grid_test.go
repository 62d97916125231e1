package batch_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/batch"
	"repro/internal/graph"
)

// scenarioSpec is a full six-dimensional grid: every classic dimension plus
// ≥ 2 non-static scenarios.
func scenarioSpec() batch.Spec {
	return batch.Spec{
		Topologies: []string{"cycle", "torus"},
		Algorithms: []string{"diffusion", "randpair"},
		Modes:      []string{"continuous", "discrete"},
		Workloads:  []string{"spike", "uniform"},
		Scenarios:  []string{"static", "adversarial-respike", "poisson-arrivals:0.05"},
		Seeds:      []int64{1, 2},
		N:          16,
	}
}

// TestExpandScenarioDimension: the scenario dimension multiplies the
// expansion, canonicalizes its entries, and keys static units in the
// legacy five-segment form while non-static units carry their scenario.
func TestExpandScenarioDimension(t *testing.T) {
	spec := scenarioSpec()
	units, err := batch.Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	if want := spec.UnitCount(); len(units) != want || want != 2*2*2*2*3*2 {
		t.Fatalf("expanded %d units, want %d", len(units), want)
	}
	keys := map[string]bool{}
	for _, u := range units {
		if keys[u.Key()] {
			t.Fatalf("duplicate key %s", u.Key())
		}
		keys[u.Key()] = true
		segs := strings.Split(u.Key(), "/")
		switch u.Scenario {
		case "": // static
			if len(segs) != 5 {
				t.Fatalf("static unit key %q not in legacy form", u.Key())
			}
		case "adversarial-respike:8:0.5", "poisson-arrivals:0.05":
			if len(segs) != 6 || segs[5] != u.Scenario {
				t.Fatalf("scenario unit key %q does not carry its canonical scenario", u.Key())
			}
		default:
			t.Fatalf("unexpected scenario %q", u.Scenario)
		}
	}
}

// TestExpandRejectsScenarioDuplicatesAfterCanonicalization: an entry
// spelled with explicit default parameters is the same process as the bare
// name and must not expand twice.
func TestExpandRejectsScenarioDuplicatesAfterCanonicalization(t *testing.T) {
	spec := scenarioSpec()
	spec.Scenarios = []string{"bursty", "bursty:16:0.25"}
	if _, err := batch.Expand(spec); err == nil || !strings.Contains(err.Error(), "duplicate scenario") {
		t.Fatalf("duplicate canonical scenarios accepted (err = %v)", err)
	}
	spec.Scenarios = []string{"no-such-scenario"}
	if _, err := batch.Expand(spec); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

// TestShardDisjointExhaustive6D: on the six-dimensional grid, every unit
// belongs to exactly one shard for any split width.
func TestShardDisjointExhaustive6D(t *testing.T) {
	spec := scenarioSpec()
	all, err := batch.Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{1, 3, 7, len(all), len(all) + 5} {
		owner := make(map[int]int, len(all))
		total := 0
		for i := 0; i < m; i++ {
			sharded, err := spec.Shard(i, m)
			if err != nil {
				t.Fatal(err)
			}
			count := 0
			for _, u := range all {
				if batch.ShardOwns(u.Index, i, m) {
					if prev, dup := owner[u.Index]; dup {
						t.Fatalf("m=%d: unit %d owned by shards %d and %d", m, u.Index, prev, i)
					}
					owner[u.Index] = i
					count++
				}
			}
			if count != sharded.OwnedUnitCount() {
				t.Fatalf("m=%d shard %d: owns %d units, OwnedUnitCount says %d", m, i, count, sharded.OwnedUnitCount())
			}
			total += count
		}
		if total != len(all) {
			t.Fatalf("m=%d: shards cover %d of %d units", m, total, len(all))
		}
	}
}

// TestMergeJournals6DByteIdentity: per-shard journals of the
// six-dimensional grid merge back into a report byte-identical to the
// single-process sweep — CSV, JSON and the streaming aggregates.
func TestMergeJournals6DByteIdentity(t *testing.T) {
	spec := scenarioSpec()
	full, err := batch.Run(spec, fakeRun)
	if err != nil {
		t.Fatal(err)
	}
	var fullCSV, fullJSON bytes.Buffer
	if err := full.RenderCSV(&fullCSV); err != nil {
		t.Fatal(err)
	}
	if err := full.RenderJSON(&fullJSON); err != nil {
		t.Fatal(err)
	}

	paths := writeShardJournals(t, spec, 3)
	merged, stats, err := batch.ReadMergedJournals(paths...)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Cells != spec.UnitCount() || stats.Dropped != 0 {
		t.Fatalf("merged %d cells (%d dropped), want %d", stats.Cells, stats.Dropped, spec.UnitCount())
	}
	var calls atomic.Int64
	countingRun := func(u batch.Unit, g *graph.G, loads []float64, algoSeed int64) (batch.Outcome, error) {
		calls.Add(1)
		return fakeRun(u, g, loads, algoSeed)
	}
	rep, err := batch.Resume(context.Background(), spec, countingRun, merged, nil)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 0 {
		t.Fatalf("complete merged journal re-ran %d units", calls.Load())
	}
	var mergedCSV, mergedJSON bytes.Buffer
	if err := rep.RenderCSV(&mergedCSV); err != nil {
		t.Fatal(err)
	}
	if err := rep.RenderJSON(&mergedJSON); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fullCSV.Bytes(), mergedCSV.Bytes()) {
		t.Fatalf("merged CSV differs from single-process CSV:\n%s\nvs\n%s", mergedCSV.String(), fullCSV.String())
	}
	if !bytes.Equal(fullJSON.Bytes(), mergedJSON.Bytes()) {
		t.Fatal("merged JSON differs from single-process JSON")
	}

	// Streaming aggregates folded from the merged journals must match the
	// aggregates folded from the live sweep.
	liveAgg := batch.NewAggSink()
	if err := batch.RunStream(context.Background(), spec, fakeRun, liveAgg); err != nil {
		t.Fatal(err)
	}
	mergedAgg := batch.NewAggSink()
	if _, err := batch.MergeJournals(mergedAgg, paths...); err != nil {
		t.Fatal(err)
	}
	var liveBuf, mergedBuf bytes.Buffer
	if err := liveAgg.Report().RenderCSV(&liveBuf); err != nil {
		t.Fatal(err)
	}
	if err := mergedAgg.Report().RenderCSV(&mergedBuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(liveBuf.Bytes(), mergedBuf.Bytes()) {
		t.Fatalf("streamed aggregates differ:\n%s\nvs\n%s", mergedBuf.String(), liveBuf.String())
	}
}

// TestMergeRefusesScenarioMismatch: journals recorded under different
// scenario dimensions index different grids and must not merge.
func TestMergeRefusesScenarioMismatch(t *testing.T) {
	a := scenarioSpec()
	b := scenarioSpec()
	b.Scenarios = []string{"static", "bursty", "poisson-arrivals:0.05"}
	if err := batch.SameGrid(a, b); err == nil || !strings.Contains(err.Error(), "scenario") {
		t.Fatalf("scenario-dimension mismatch accepted (err = %v)", err)
	}
	// Spelling differences of the same process are not a mismatch.
	c := scenarioSpec()
	c.Scenarios = []string{"static", "adversarial-respike:8:0.5", "poisson-arrivals:0.05"}
	if err := batch.SameGrid(a, c); err != nil {
		t.Fatalf("canonical-equal scenario dimensions rejected: %v", err)
	}
	// A legacy header (no scenarios key → nil) matches a defaulted static
	// grid.
	d := okSpec()
	e := okSpec()
	e.Scenarios = []string{"static"}
	if err := batch.SameGrid(d, e); err != nil {
		t.Fatalf("nil vs default-static scenario dimension rejected: %v", err)
	}
}

// TestOldJournalCompat: a journal in the pre-scenario format — no
// "scenarios" key in the header, no "scenario" key in any cell — must
// resume cleanly under a spec that names the scenario dimension
// explicitly, replaying every cell (nothing re-runs) into a report
// byte-identical to a fresh sweep's. This is the static-defaults
// compatibility contract: old journals keep working, and new static
// journals are byte-compatible with old readers because static cells
// never emit a scenario key.
func TestOldJournalCompat(t *testing.T) {
	spec := okSpec() // scenario-free: defaults to ["static"]
	full, err := batch.Run(spec, fakeRun)
	if err != nil {
		t.Fatal(err)
	}

	// A journal the engine writes for a scenario-free sweep must contain
	// no scenario bytes anywhere — header included — or golden-journal
	// comparisons across engine versions would break.
	enginePath := filepath.Join(t.TempDir(), "engine.jsonl")
	sink, err := batch.CreateJSONL(enginePath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := batch.RunSink(context.Background(), spec, fakeRun, sink); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	engineBytes, err := os.ReadFile(enginePath)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(engineBytes), "scenario") {
		t.Fatal("engine-written static journal contains scenario bytes")
	}
	var fullCSV bytes.Buffer
	if err := full.RenderCSV(&fullCSV); err != nil {
		t.Fatal(err)
	}

	// Handcraft the legacy journal: the header marshals a spec whose
	// Scenarios field is nil (as an old binary would have written — no
	// "scenarios" key), each cell marshals without a "scenario" key.
	legacyHeader := spec.WithDefaults()
	legacyHeader.Scenarios = nil
	var legacy bytes.Buffer
	hdr, err := json.Marshal(struct {
		Spec batch.Spec `json:"spec"`
	}{Spec: legacyHeader})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(hdr), "scenario") {
		t.Fatalf("defaulted static header gained a scenario key: %s", hdr)
	}
	legacy.Write(hdr)
	legacy.WriteByte('\n')
	for _, c := range full.Cells {
		line, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(line), "scenario") {
			t.Fatalf("static cell gained a scenario key: %s", line)
		}
		legacy.Write(line)
		legacy.WriteByte('\n')
	}
	path := filepath.Join(t.TempDir(), "legacy.jsonl")
	if err := os.WriteFile(path, legacy.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	journal, err := batch.ReadJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(journal.Cells) != len(full.Cells) || journal.Dropped != 0 {
		t.Fatalf("legacy journal read back %d cells (%d dropped), want %d",
			len(journal.Cells), journal.Dropped, len(full.Cells))
	}
	explicit := spec
	explicit.Scenarios = []string{"static"}
	var calls atomic.Int64
	countingRun := func(u batch.Unit, g *graph.G, loads []float64, algoSeed int64) (batch.Outcome, error) {
		calls.Add(1)
		return fakeRun(u, g, loads, algoSeed)
	}
	rep, err := batch.Resume(context.Background(), explicit, countingRun, journal, nil)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 0 {
		t.Fatalf("legacy journal resume re-ran %d units", calls.Load())
	}
	var resumedCSV bytes.Buffer
	if err := rep.RenderCSV(&resumedCSV); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fullCSV.Bytes(), resumedCSV.Bytes()) {
		t.Fatalf("legacy-journal resume differs from fresh sweep:\n%s\nvs\n%s",
			resumedCSV.String(), fullCSV.String())
	}
}

// TestScenarioSeedsAreScenarioSpecific: distinct scenarios on the same
// cell draw distinct scenario streams, while the static unit's workload
// and algorithm streams are untouched by the dimension existing at all.
func TestScenarioSeedsAreScenarioSpecific(t *testing.T) {
	spec := scenarioSpec()
	units, err := batch.Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	byScenario := map[string]batch.Unit{}
	for _, u := range units {
		if u.Topology == "cycle" && u.Algorithm == "diffusion" && u.Mode == "continuous" &&
			u.WorkloadName == "spike" && u.Seed == 1 {
			byScenario[u.Scenario] = u
		}
	}
	if len(byScenario) != 3 {
		t.Fatalf("found %d scenario variants of the probe cell, want 3", len(byScenario))
	}
	seen := map[int64]string{}
	for name, u := range byScenario {
		s := u.ScenarioSeed()
		if prev, dup := seen[s]; dup {
			t.Fatalf("scenarios %s and %s share scenario seed %d", prev, name, s)
		}
		seen[s] = name
	}
	// The static unit's key — hence its whole seed sequence — must be the
	// legacy one, unchanged by the dimension's existence.
	scenarioFree := okSpec()
	scenarioFree.Topologies = spec.Topologies
	scenarioFree.Algorithms = spec.Algorithms
	legacyUnits, err := batch.Expand(scenarioFree)
	if err != nil {
		t.Fatal(err)
	}
	for _, lu := range legacyUnits {
		if lu.Key() == byScenario[""].Key() {
			return // same key ⇒ same seedBase ⇒ same streams
		}
	}
	t.Fatalf("static unit key %q not found in scenario-free expansion", byScenario[""].Key())
}
