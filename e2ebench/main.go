// Command e2ebench is the repository's benchmark: one command that runs a
// named workload against the library's public packages, checks that every
// output is correct, and prints either the end-to-end metrics (--trace 0)
// or the per-layer metrics of a traced run (--trace 1). The last line of
// standard output is the JSON result. See README.md.
//
//	go run . --workload grid-sweep --seed 1 --seconds 25 --trace 0 \
//	    --lbbench /path/to/lbbench --work-dir /tmp/e2ebench
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/speccache"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	toy      bool   // tiny inputs, for the benchmark's own test
	lbbench  string // lbbench binary spawn-sweep launches
	workDir  string // parent of this run's fresh temp directory
	traceOut string // Chrome trace path (traced runs)
	log      io.Writer
}

// deadline reports whether a measured loop that started at start and whose
// last iteration took last should stop instead of starting another one:
// the next iteration would end past the --seconds budget.
func (c *config) deadline(start time.Time, last time.Duration) bool {
	return time.Since(start)+last > time.Duration(c.seconds*float64(time.Second))
}

type workloadFunc func(ctx context.Context, c *config, rec *recorder, o *outcome) error

var workloads = map[string]workloadFunc{
	"grid-sweep":   runGridSweep,
	"big-cell":     runBigCell,
	"serve-ingest": runServeIngest,
	"spawn-sweep":  runSpawnSweep,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs one workload and prints the report. Exit codes: 0
// a correct run; 1 a run whose outputs failed a check (the result line is
// still printed); 2 the run could not be made (bad flags, a dirty
// environment, a harness error) — nothing is printed on stdout.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	c := &config{log: stderr}
	fs.StringVar(&c.workload, "workload", "", "workload: grid-sweep, big-cell, serve-ingest or spawn-sweep")
	fs.Int64Var(&c.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	fs.Float64Var(&c.seconds, "seconds", 25, "measuring budget per run")
	traceFlag := fs.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	fs.BoolVar(&c.toy, "toy", false, "tiny inputs (the benchmark's own test)")
	fs.StringVar(&c.lbbench, "lbbench", "", "lbbench binary for spawn-sweep (built before the run)")
	fs.StringVar(&c.workDir, "work-dir", filepath.Join(".bench_build", "work"), "directory for the run's fresh temp files")
	fs.StringVar(&c.traceOut, "trace-out", "", "Chrome trace output (default <work-dir>/../traces/<workload>-seed<n>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	c.traced = *traceFlag == 1
	wl, ok := workloads[c.workload]
	if !ok || (*traceFlag != 0 && *traceFlag != 1) || c.seconds <= 0 {
		fmt.Fprintf(stderr, "e2ebench: need --workload {grid-sweep,big-cell,serve-ingest,spawn-sweep}, --trace 0|1 and --seconds > 0\n")
		return 2
	}
	// Cold start: a spill directory left by an earlier run would turn the
	// big-cell λ₂ solves into file reads, so runs would disagree.
	if dir := os.Getenv(speccache.EnvDiskDir); dir != "" {
		fmt.Fprintf(stderr, "e2ebench: refusing to run with %s=%s set: every run must solve its spectra cold\n", speccache.EnvDiskDir, dir)
		return 2
	}
	if err := os.MkdirAll(c.workDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 2
	}
	tmp, err := os.MkdirTemp(c.workDir, c.workload+"-*")
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 2
	}
	defer os.RemoveAll(tmp)
	c.workDir = tmp
	if c.traced && c.traceOut == "" {
		c.traceOut = filepath.Join(filepath.Dir(filepath.Dir(tmp)), "traces", fmt.Sprintf("%s-seed%d.json", c.workload, c.seed))
	}

	var rec *recorder
	if c.traced {
		rec = newRecorder()
	}
	env := fmt.Sprintf("env: nproc=%d GOMAXPROCS=%d go=%s workload=%s seed=%d seconds=%g trace=%d toy=%v",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), c.workload, c.seed, c.seconds, *traceFlag, c.toy)
	fmt.Fprintln(stderr, env)

	o := newOutcome()
	o.lines = append(o.lines, env)
	if err := wl(context.Background(), c, rec, o); err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", c.workload, err)
		return 2
	}
	o.set("peak_rss_mb", peakRSSMB(c.workload == "spawn-sweep"))
	o.set("error_rate", ratio(float64(o.failed), float64(o.attempted)))

	defs := endToEnd
	if c.traced {
		defs = perLayer
		// A layer the workload does not reach reports 0.
		for _, d := range perLayer {
			if _, ok := o.values[d.Name]; !ok {
				o.set(d.Name, 0)
			}
		}
		if err := rec.writeChrome(c.traceOut, map[string]any{
			"name": "e2ebench " + c.workload, "seed": c.seed, "nproc": runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		}); err != nil {
			fmt.Fprintf(stderr, "e2ebench: writing trace: %v\n", err)
			return 2
		}
		o.notef("trace: %s", c.traceOut)
	}
	res, err := buildResult(o, defs)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", c.workload, err)
		return 2
	}
	if err := printReport(stdout, o, res, defs); err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 2
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// peakRSSMB is the process's peak resident set in MiB; with children set
// the largest child's peak is added (spawn-sweep's shard processes run
// beside the parent).
func peakRSSMB(children bool) float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // Linux: Maxrss in KiB
	kb := ru.Maxrss
	if children {
		var rc syscall.Rusage
		_ = syscall.Getrusage(syscall.RUSAGE_CHILDREN, &rc)
		kb += rc.Maxrss
	}
	return float64(kb) / 1024
}

// timeSetup runs build reps times, each from a collected heap, and returns
// the median duration — set-up is repeated so that work moved into it
// shows as a steady number.
func timeSetup(reps int, build func() error) (float64, error) {
	ds := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := build(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t0).Seconds())
	}
	return median(ds), nil
}
