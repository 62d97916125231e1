package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Layer names used for span attribution. Stepper spans carry the
// algorithm name ("diffusion", "dimexchange", "randpair") as their layer.
const (
	layerBench        = "bench" // the benchmark's own harness work
	layerIdle         = "idle"  // waiting on a clock, such as the next round tick
	layerSpectral     = "spectral"
	layerCore         = "core"
	layerBatch        = "batch"
	layerServe        = "serve"
	layerOrchestrator = "orchestrator"
)

// span is one recorded interval. Spans are recorded by the benchmark
// around its calls into the program's packages (plus the synthetic phase
// spans the program itself exposes through core.GridTrace and
// core.Config.Phases) and kept in memory until the run ends.
type span struct {
	name   string
	layer  string
	track  int64 // trace row
	parent int   // index into recorder.spans; -1 for a root
	start  time.Duration
	end    time.Duration
	args   map[string]any
}

// recorder holds the spans of one traced run. The nil *recorder is the
// untraced run: every method is a no-op returning -1.
type recorder struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
	tracks map[int64]string
}

func newRecorder() *recorder {
	return &recorder{origin: time.Now(), tracks: map[int64]string{}}
}

func (r *recorder) on() bool { return r != nil }

// add records a finished span and returns its id.
func (r *recorder) add(name, layer string, track int64, parent int, start, end time.Time, args map[string]any) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		name: name, layer: layer, track: track, parent: parent,
		start: start.Sub(r.origin), end: end.Sub(r.origin), args: args,
	})
	return len(r.spans) - 1
}

// open records a span that has started and not yet ended; close sets its
// end. Children can name an open span as their parent.
func (r *recorder) open(name, layer string, track int64, parent int) int {
	now := time.Now()
	return r.add(name, layer, track, parent, now, now, nil)
}

func (r *recorder) close(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.origin)
	r.mu.Lock()
	r.spans[id].end = now
	r.mu.Unlock()
}

func (r *recorder) nameTrack(track int64, name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.tracks[track] = name
	r.mu.Unlock()
}

// tile records consecutive child spans of the given durations starting at
// start — how per-phase totals become spans inside the call that spent
// them. The durations are measured; the placement inside the parent is not.
func (r *recorder) tile(parent int, track int64, start time.Time, parts []phaseSpan) {
	at := start
	for _, p := range parts {
		if p.d <= 0 {
			continue
		}
		r.add(p.name, p.layer, track, parent, at, at.Add(p.d), nil)
		at = at.Add(p.d)
	}
}

type phaseSpan struct {
	name, layer string
	d           time.Duration
}

// importObs converts the events an obs.Tracer wrote during core.GridRun
// into spans under parent: unit spans (layer core) and the synthetic
// per-phase spans obs.Phases emits inside them. base is the wall-clock
// instant the obs tracer was created; trackBase keeps its rows apart from
// the benchmark's own. It returns the imported unit spans.
func (r *recorder) importObs(events []obs.Event, base time.Time, parent int, trackBase int64) []int {
	if r == nil {
		return nil
	}
	var units []int
	lastUnit := map[int64]int{}
	algo := map[int]string{}
	for _, ev := range events {
		if ev.Ph != "X" {
			continue
		}
		start := base.Add(time.Duration(ev.Ts) * time.Microsecond)
		end := start.Add(time.Duration(ev.Dur) * time.Microsecond)
		track := trackBase + ev.Tid
		switch ev.Cat {
		case "unit":
			id := r.add(ev.Name, layerCore, track, parent, start, end, ev.Args)
			lastUnit[ev.Tid] = id
			algo[id] = unitAlgorithm(ev.Name)
			units = append(units, id)
			r.nameTrack(track, fmt.Sprintf("grid worker row %d", ev.Tid))
		case "phase":
			u, ok := lastUnit[ev.Tid]
			if !ok {
				continue
			}
			r.add(ev.Name, phaseLayer(ev.Name, algo[u]), track, u, start, end, ev.Args)
		}
	}
	return units
}

// unitAlgorithm extracts the algorithm from a batch unit key
// ("topology/algorithm/mode/workload/s<seed>[/scenario]").
func unitAlgorithm(key string) string {
	parts := strings.Split(key, "/")
	if len(parts) < 2 {
		return ""
	}
	return parts[1]
}

// phaseLayer maps an obs.Phases phase name to the layer that spends it.
func phaseLayer(phase, algorithm string) string {
	switch phase {
	case obs.PhaseSpectra.String():
		return layerSpectral
	case obs.PhaseStep.String():
		return algorithm
	}
	return layerCore
}

// attribution is the outcome of splitting a window of wall time over the
// spans that cover it.
type attribution struct {
	wall    time.Duration
	byLayer map[string]time.Duration
}

// attribute splits the wall time of root over layers: every instant goes
// to the innermost spans open at that instant (spans none of whose
// children is open), shared evenly when several run at once on parallel
// workers. An idle span gets an instant only when no other innermost span
// is open: waiting on a clock takes no time from the work beside it. The
// root's own share is the harness time no layer span explains. For a single-threaded run this is exactly "span duration minus
// the part covered by its children"; with parallel workers it splits wall
// time rather than summing CPU time, so the shares add up to the wall time.
func (r *recorder) attribute(root int) attribution {
	r.mu.Lock()
	defer r.mu.Unlock()
	rs := r.spans[root]
	in := map[int]bool{root: true}
	// Spans are appended after their parents are, so one forward pass
	// finds the whole subtree.
	for i := root + 1; i < len(r.spans); i++ {
		if p := r.spans[i].parent; p >= 0 && in[p] {
			in[i] = true
		}
	}
	type edge struct {
		t     time.Duration
		open  bool
		index int
	}
	var edges []edge
	for i := range in {
		s := r.spans[i]
		st, en := s.start, s.end
		if st < rs.start {
			st = rs.start
		}
		if en > rs.end {
			en = rs.end
		}
		if en <= st {
			continue
		}
		edges = append(edges, edge{st, true, i}, edge{en, false, i})
	}
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].t != edges[b].t {
			return edges[a].t < edges[b].t
		}
		return !edges[a].open && edges[b].open // close before open
	})
	att := attribution{wall: rs.end - rs.start, byLayer: map[string]time.Duration{}}
	openKids := map[int]int{}
	openSet := map[int]bool{}
	var prev time.Duration
	for k, e := range edges {
		if k > 0 && e.t > prev {
			var leaves, idle []int
			for i := range openSet {
				if openKids[i] > 0 {
					continue
				}
				if r.spans[i].layer == layerIdle {
					idle = append(idle, i)
				} else {
					leaves = append(leaves, i)
				}
			}
			if len(leaves) == 0 {
				leaves = idle
			}
			if len(leaves) > 0 {
				share := (e.t - prev) / time.Duration(len(leaves))
				for _, i := range leaves {
					att.byLayer[r.spans[i].layer] += share
				}
			}
		}
		prev = e.t
		p := r.spans[e.index].parent
		if e.open {
			openSet[e.index] = true
			if in[p] && p >= 0 {
				openKids[p]++
			}
		} else {
			delete(openSet, e.index)
			if in[p] && p >= 0 {
				openKids[p]--
			}
		}
	}
	return att
}

// coverage is the share of the busy wall time — the wall time not spent
// idle — that some layer span explains.
func (a attribution) coverage() float64 {
	busy := a.wall - a.byLayer[layerIdle]
	return ratio(float64(busy-a.byLayer[layerBench]), float64(busy))
}

// idleShare is the share of the wall time spent waiting on a clock.
func (a attribution) idleShare() float64 {
	return ratio(float64(a.byLayer[layerIdle]), float64(a.wall))
}

// merge folds b into a (several measured windows of one run).
func (a *attribution) merge(b attribution) {
	if a.byLayer == nil {
		a.byLayer = map[string]time.Duration{}
	}
	a.wall += b.wall
	for k, v := range b.byLayer {
		a.byLayer[k] += v
	}
}

// writeSelfTimes prints each layer's self time and share of the wall.
func (a attribution) writeSelfTimes(w io.Writer) {
	type row struct {
		layer string
		d     time.Duration
	}
	var rows []row
	for k, v := range a.byLayer {
		rows = append(rows, row{k, v})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].d > rows[j].d })
	fmt.Fprintf(w, "self time by layer over %.3fs of measured wall time:\n", a.wall.Seconds())
	for _, r := range rows {
		fmt.Fprintf(w, "  %-14s %10.4fs %6.1f%%\n", r.layer, r.d.Seconds(), 100*ratio(float64(r.d), float64(a.wall)))
	}
	fmt.Fprintf(w, "  layer spans cover %.1f%% of the wall time not spent idle\n", 100*a.coverage())
}

// setTraceMetrics reports a traced run's span coverage, idle share and
// tracing overhead — the traced repetitions' time for some work against the same
// work repeated untraced first — and prints the self-time table.
func setTraceMetrics(c *config, o *outcome, att attribution, traced, untraced float64) {
	att.writeSelfTimes(c.log)
	o.set("trace.coverage", att.coverage())
	o.set("trace.idle_share", att.idleShare())
	o.set("trace.overhead", traced/untraced-1)
}

// writeChrome writes every span as a Chrome trace-event file — the same
// {"traceEvents":[...]} framing and event schema as obs traces, so
// Perfetto opens both the same way. meta lands in the trace's metadata.
func (r *recorder) writeChrome(path string, meta map[string]any) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	events := make([]obs.Event, 0, len(r.spans)+len(r.tracks)+1)
	events = append(events, obs.Event{Name: "process_name", Ph: "M", Pid: 1, Args: meta})
	for tid, name := range r.tracks {
		events = append(events, obs.Event{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid, Args: map[string]any{"name": name}})
	}
	for _, s := range r.spans {
		dur := (s.end - s.start).Microseconds()
		if dur < 1 {
			dur = 1
		}
		events = append(events, obs.Event{
			Name: s.name, Cat: s.layer, Ph: "X", Pid: 1, Tid: s.track,
			Ts: s.start.Microseconds(), Dur: dur, Args: s.args,
		})
	}
	var buf bytes.Buffer
	buf.WriteString("{\"traceEvents\":[\n")
	for i := range events {
		b, err := json.Marshal(&events[i])
		if err != nil {
			return err
		}
		if i > 0 {
			buf.WriteString(",\n")
		}
		buf.Write(b)
	}
	buf.WriteString("\n]}\n")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
