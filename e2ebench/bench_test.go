package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
)

// benchmarkJSON is the part of ../BENCHMARK.json the program must agree
// with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for name := range workloads {
		have = append(have, name)
	}
	sort.Strings(names)
	sort.Strings(have)
	if strings.Join(names, ",") != strings.Join(have, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, have)
	}
	same := func(kind string, want []metricDef, got []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(want) != len(got) {
			t.Errorf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(want), len(got))
			return
		}
		for i := range want {
			if want[i].Name != got[i].Name || want[i].Unit != got[i].Unit {
				t.Errorf("%s[%d]: program %s (%s), BENCHMARK.json %s (%s)", kind, i, want[i].Name, want[i].Unit, got[i].Name, got[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, bj.EndToEnd)
	same("per_layer", perLayer, bj.PerLayer)
}

// TestWorkloadsToy runs every workload end to end at toy size, untraced and
// traced, and checks the printed result against the metric lists.
func TestWorkloadsToy(t *testing.T) {
	if testing.Short() {
		t.Skip("builds lbbench and runs every workload")
	}
	dir := t.TempDir()
	lbbench := filepath.Join(dir, "lbbench")
	build := exec.Command("go", "build", "-o", lbbench, "./cmd/lbbench")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building lbbench: %v\n%s", err, out)
	}
	for name := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", name, "--seed", "3", "--seconds", "0.01", "--trace", trace,
					"--toy", "--lbbench", lbbench, "--work-dir", filepath.Join(dir, "work"),
					"--trace-out", filepath.Join(dir, name+".json")}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, stdout.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("result correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, stdout.String())
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics printed, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s: got %+v, want unit %s", d.Name, m, d.Unit)
					}
					if trace == "0" && !(m.Value > 0) {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, m.Value)
					}
				}
				if trace == "1" {
					if cov := res.Metrics["trace.coverage"].Value; cov < 0.9 {
						t.Errorf("layer spans cover %.3f of the wall time, want ≥ 0.9", cov)
					}
					b, err := os.ReadFile(filepath.Join(dir, name+".json"))
					if err != nil {
						t.Fatal(err)
					}
					var tr struct {
						TraceEvents []map[string]any `json:"traceEvents"`
					}
					if err := json.Unmarshal(b, &tr); err != nil || len(tr.TraceEvents) < 2 {
						t.Errorf("trace file: %d events, %v", len(tr.TraceEvents), err)
					}
				}
			})
		}
	}
}

func TestSameSeedSameJournal(t *testing.T) {
	c := &config{toy: true, seed: 5, workDir: t.TempDir()}
	spec := sweepSpec(c)
	a, err := runGridShards(t.Context(), spec, filepath.Join(c.workDir, "a"), nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runGridShards(t.Context(), spec, filepath.Join(c.workDir, "b"), nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSameBytes(a.merged, b.merged); err != nil {
		t.Fatal(err)
	}
	c.seed = 6
	d, err := runGridShards(t.Context(), sweepSpec(c), filepath.Join(c.workDir, "d"), nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	if checkSameBytes(a.merged, d.merged) == nil {
		t.Fatal("different seeds gave the same journal: the seed does not reach the inputs")
	}
}

// The checks must fire on deliberately broken inputs.

func TestConservationCheckFires(t *testing.T) {
	g := graph.Torus(8, 8)
	loads := make([]float64, g.N())
	for i := range loads {
		loads[i] = float64(1 + i%7)
	}
	for _, mode := range []core.Mode{core.Continuous, core.Discrete} {
		s, err := core.Open(core.Config{Graph: g, Algorithm: core.Diffusion, Mode: mode, Loads: loads})
		if err != nil {
			t.Fatal(err)
		}
		before := s.Snapshot()
		for r := 0; r < 20; r++ {
			if err := s.Step(); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		after := s.Snapshot()
		discrete := mode == core.Discrete
		if err := checkConservation(before, after, discrete, 20, g.MaxDegree()); err != nil {
			t.Fatalf("%v: a correct run fails the check: %v", mode, err)
		}
		leaked := append([]float64(nil), after...)
		leaked[3]-- // one unit of load vanishes
		if checkConservation(before, leaked, discrete, 20, g.MaxDegree()) == nil {
			t.Errorf("%v: lost load passes the check", mode)
		}
	}
	if checkConservation([]float64{2, 2}, []float64{1.5, 2.5}, true, 1, 1) == nil {
		t.Error("fractional tokens pass the discrete check")
	}
	if checkConservation([]float64{1, 1}, []float64{1}, false, 1, 1) == nil {
		t.Error("a lost node passes the check")
	}
}

func TestMonotoneCheckFires(t *testing.T) {
	if err := checkMonotone([]float64{9, 4, 4, 1}); err != nil {
		t.Fatal(err)
	}
	if checkMonotone([]float64{9, 4, math.Nextafter(4, 5), 1}) == nil {
		t.Error("a rise of one ulp passes the check")
	}
}

func TestInjectedCheckFires(t *testing.T) {
	if err := checkInjected(12, 3, 12, 3); err != nil {
		t.Fatal(err)
	}
	if checkInjected(12, 3, 11, 3) == nil {
		t.Error("a lost arrival's load passes the check")
	}
	if checkInjected(12, 3, 12, 4) == nil {
		t.Error("an arrival committed twice passes the check")
	}
}

func TestJournalChecksFire(t *testing.T) {
	if checkNoFailedCells(10, 1, "boom") == nil {
		t.Error("a failed cell passes the check")
	}
	a := []byte("{\"spec\":{}}\n{\"index\":0}\n")
	if err := checkSameBytes(a, append([]byte(nil), a...)); err != nil {
		t.Fatal(err)
	}
	if checkSameBytes(a, []byte("{\"spec\":{}}\n{\"index\":1}\n")) == nil {
		t.Error("a changed cell passes the check")
	}
	if checkSameBytes(a, a[:len(a)-1]) == nil {
		t.Error("a truncated journal passes the check")
	}
	if checkCount(719, 720) == nil {
		t.Error("a missing cell passes the count check")
	}
}

func TestAttributeSplitsWallTime(t *testing.T) {
	r := newRecorder()
	t0 := r.origin
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	root := r.add("root", layerBench, 0, -1, t0, t0.Add(ms(100)), nil)
	a := r.add("a", layerBatch, 0, root, t0.Add(ms(10)), t0.Add(ms(90)), nil)
	r.add("a1", layerCore, 1, a, t0.Add(ms(20)), t0.Add(ms(60)), nil)
	r.add("a2", layerSpectral, 2, a, t0.Add(ms(40)), t0.Add(ms(80)), nil)
	att := r.attribute(root)
	want := map[string]time.Duration{
		layerBench:    ms(20),            // 0–10, 90–100
		layerBatch:    ms(20),            // 10–20, 80–90
		layerCore:     ms(20) + ms(20)/2, // 20–40 alone, 40–60 shared
		layerSpectral: ms(20)/2 + ms(20), // 40–60 shared, 60–80 alone
	}
	for layer, d := range want {
		if got := att.byLayer[layer]; got != d {
			t.Errorf("%s: %v, want %v", layer, got, d)
		}
	}
	if got := att.coverage(); math.Abs(got-0.8) > 1e-9 {
		t.Errorf("coverage %v, want 0.8", got)
	}
}

func TestAttributeIdleYieldsToWork(t *testing.T) {
	r := newRecorder()
	t0 := r.origin
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	root := r.add("root", layerBench, 0, -1, t0, t0.Add(ms(100)), nil)
	r.add("wait for tick", layerIdle, 0, root, t0, t0.Add(ms(60)), nil)
	r.add("POST /arrive", layerServe, 1, root, t0.Add(ms(40)), t0.Add(ms(80)), nil)
	att := r.attribute(root)
	want := map[string]time.Duration{
		layerIdle:  ms(40), // 0–40 alone
		layerServe: ms(40), // 40–60 beside the wait, 60–80 alone
		layerBench: ms(20), // 80–100
	}
	for layer, d := range want {
		if got := att.byLayer[layer]; got != d {
			t.Errorf("%s: %v, want %v", layer, got, d)
		}
	}
	if got := att.coverage(); math.Abs(got-40.0/60) > 1e-9 {
		t.Errorf("coverage %v, want 2/3 of the busy time", got)
	}
	if got := att.idleShare(); math.Abs(got-0.4) > 1e-9 {
		t.Errorf("idle share %v, want 0.4", got)
	}
}

func TestLadderMaxOK(t *testing.T) {
	ok := func(rate, p99 float64) rungStats { return rungStats{rate: rate, a2cP99: p99, ok: true} }
	bad := func(rate, p99 float64) rungStats { return rungStats{rate: rate, a2cP99: p99} }
	cases := []struct {
		name string
		l    ladderRun
		want float64
	}{
		{"crossing halfway in log", ladderRun{rungs: []rungStats{ok(1000, 10), ok(2000, 25), bad(2400, 100)}}, 2000 * math.Sqrt(1.2)},
		{"first rung failed", ladderRun{rungs: []rungStats{bad(500, 80)}}, 0},
		{"never failed", ladderRun{rungs: []rungStats{ok(500, 5), ok(2000, 9)}}, 2000},
		{"failed below the limit", ladderRun{rungs: []rungStats{ok(500, 5), bad(2000, 9)}}, 500},
	}
	for _, c := range cases {
		if got := c.l.maxOK(50); math.Abs(got-c.want) > 1e-9*c.want {
			t.Errorf("%s: %v, want %v", c.name, got, c.want)
		}
	}
}

func TestTailWindows(t *testing.T) {
	// Two repetitions of a 1 s rung, 200 samples a window; one window has
	// a stall that puts 10% of its samples at 50 ms.
	rep := func(stalled bool) rungStats {
		w := newWindowed(time.Second)
		for k := 0; k < 400; k++ {
			at := time.Duration(k) * time.Second / 400
			x := 1 + float64(k%100)/100 // 1.00 .. 1.99 ms
			if stalled && at < tailWindow && k%10 == 0 {
				x = 50
			}
			w.add(at, x)
		}
		return rungStats{rate: 400, ackWindowsP99: w.p99s(), a2cWindowsP99: w.p99s()}
	}
	reps := []rungStats{rep(true), rep(false)}
	if got := len(reps[0].ackWindowsP99); got != 2 {
		t.Fatalf("%d windows, want 2", got)
	}
	if got := reps[0].ackWindowsP99[0]; got != 50 {
		t.Errorf("stalled window p99 %v, want 50", got)
	}
	m := medianRung(reps)
	if m.ackP99 > 2 || m.a2cP99 > 2 {
		t.Errorf("median over windows %v / %v ms: the one stalled window moved it", m.ackP99, m.a2cP99)
	}
	// A sample past the rung's end lands in its last window.
	w := newWindowed(time.Second)
	w.add(1200*time.Millisecond, 7)
	if got := w.p99s(); len(got) != 1 || got[0] != 7 {
		t.Errorf("late sample: %v", got)
	}
}
