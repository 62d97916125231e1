package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// metricDef is one reported metric. The lists below are the contract with
// BENCHMARK.json: the test in bench_test.go fails when names or units
// drift apart.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are printed by every untraced run (--trace 0), on every
// workload. See README.md for what each means on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cells_per_s", "1/s"},
	{"time_to_eps_s", "s"},
	{"node_rounds_per_s", "1/s"},
	{"a2c_p50_ms", "ms"},
	{"a2c_p99_ms", "ms"},
	{"ack_p99_ms", "ms"},
	{"max_ok_rate", "1/s"},
}

// perLayer are printed by every traced run (--trace 1), on every workload.
// A layer the workload does not reach reports 0.
var perLayer = []metricDef{
	{"peak_rss_mb", "MB"},
	{"topoparse.build_s", "s"},
	{"spectral.lambda2_s", "s"},
	{"spectral.solves_closed_form", "count"},
	{"spectral.solves_dense", "count"},
	{"spectral.solves_lanczos", "count"},
	{"spectral.solves_inverse_power", "count"},
	{"speccache.hit_ratio", "ratio"},
	{"session.open_s", "s"},
	{"session.step_s", "s"},
	{"session.commit_s", "s"},
	{"session.commit_share", "ratio"},
	{"session.inject_s", "s"},
	{"session.swap_graph_s", "s"},
	{"diffusion.ns_per_node_round", "ns"},
	{"dimexchange.ns_per_node_round", "ns"},
	{"randpair.ns_per_node_round", "ns"},
	{"stepper.rw_speedup", "ratio"},
	{"stepper.bytes_per_node_round_computed", "B"},
	{"batch.unit_s_p50", "s"},
	{"batch.unit_s_max", "s"},
	{"batch.pool_tail_s", "s"},
	{"batch.sink_cell_s", "s"},
	{"batch.journal_bytes", "B"},
	{"batch.merge_s", "s"},
	{"serve.step_round_s", "s"},
	{"serve.ack_p50_ms", "ms"},
	{"serve.metrics_get_p99_ms", "ms"},
	{"serve.pending_peak", "count"},
	{"serve.gen_late_p99_ms", "ms"},
	{"orchestrator.launch_s", "s"},
	{"orchestrator.child_wall_s", "s"},
	{"orchestrator.merge_s", "s"},
	{"orchestrator.restarts", "count"},
	{"error_rate", "ratio"},
	{"trace.coverage", "ratio"},
	{"trace.idle_share", "ratio"},
	{"trace.overhead", "ratio"},
}

// outcome is what one workload run hands back to main: the values of both
// metric sets (a workload fills what it measured; main checks
// completeness for the set being printed) plus the operation tally.
type outcome struct {
	values    map[string]float64
	attempted int
	failed    int
	failures  []string
	// lines are human-readable notes (ladder rows, hashes) printed before
	// the result line.
	lines []string
}

func newOutcome() *outcome { return &outcome{values: map[string]float64{}} }

func (o *outcome) set(name string, v float64) { o.values[name] = v }

// op counts one attempted operation (a cell, an arrival, a launch).
func (o *outcome) op(ok bool) {
	o.attempted++
	if !ok {
		o.failed++
	}
}

// ops counts n attempted operations of which bad failed.
func (o *outcome) ops(n, bad int) {
	o.attempted += n
	o.failed += bad
}

// check records one correctness check; a failing check is a failed
// operation and makes the run incorrect.
func (o *outcome) check(name string, err error) {
	o.attempted++
	if err != nil {
		o.failed++
		o.failures = append(o.failures, fmt.Sprintf("%s: %v", name, err))
	}
}

func (o *outcome) notef(format string, args ...any) {
	o.lines = append(o.lines, fmt.Sprintf(format, args...))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildResult selects the metric set for the run mode. A metric the
// workload forgot, or a non-finite value, is a harness bug: it is reported
// as an error rather than printed as a made-up number.
func buildResult(o *outcome, defs []metricDef) (result, error) {
	res := result{
		Correct:   o.failed == 0 && len(o.failures) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	var missing []string
	for _, d := range defs {
		v, ok := o.values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, d.Name)
			continue
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(missing) > 0 {
		return res, fmt.Errorf("metrics not measured or not finite: %s", strings.Join(missing, ", "))
	}
	if res.Attempted < 1 {
		return res, fmt.Errorf("no operation attempted")
	}
	return res, nil
}

// printReport writes the human-readable table and then the JSON result as
// the final line.
func printReport(w io.Writer, o *outcome, res result, defs []metricDef) error {
	for _, l := range o.lines {
		fmt.Fprintln(w, l)
	}
	for _, d := range defs {
		fmt.Fprintf(w, "%-40s %16.6g %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	for _, f := range o.failures {
		fmt.Fprintf(w, "CHECK FAILED %s\n", f)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 for an empty sample.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile by linear interpolation between order
// statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
