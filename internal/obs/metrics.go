package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one constant name=value pair attached to a metric at
// registration. Labels distinguish series within a family (the same metric
// name) — e.g. speccache_computes_total{quantity="lambda2"} vs {"gamma"}.
type Label struct {
	Key, Value string
}

// L is shorthand for building a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing integer metric with an atomic hot
// path. The zero value is usable but unregistered; get registered instances
// from Registry.Counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored — counters only go up).
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 metric that can go up and down (atomic via the bit
// pattern).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add folds a delta in with a CAS loop.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram: cumulative-style exposition over
// explicit upper bounds, an implicit +Inf bucket, and an exact sum/count.
// Observe is a binary search plus two atomic adds (three with the CAS'd
// float sum) — cheap enough to run per round in a live daemon.
type Histogram struct {
	bounds  []float64 // sorted upper bounds, +Inf excluded
	counts  []atomic.Uint64
	inf     atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First bucket whose bound is ≥ v (buckets are cumulative upper bounds).
	i := sort.SearchFloat64s(h.bounds, v)
	if i < len(h.bounds) {
		h.counts[i].Add(1)
	} else {
		h.inf.Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// ExpBuckets returns n exponentially growing upper bounds start,
// start·factor, start·factor², … — the standard shape for latency and
// backlog histograms whose samples span orders of magnitude.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets wants start > 0, factor > 1, n ≥ 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// metricKind is the Prometheus TYPE of one family.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// series is one registered metric instance: a label set plus its value
// source (exactly one of the pointers, or the collect func, is set).
type series struct {
	labels  []Label
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	// collect, when set, is sampled at scrape time — the bridge for
	// subsystems that keep their own counters (spectral solve paths) but
	// still expose them through the unified registry.
	collect func() float64
}

// family groups every series sharing one metric name (and therefore one
// TYPE and HELP line).
type family struct {
	name   string
	help   string
	kind   metricKind
	series []*series
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. Registration is idempotent per (name, labels): asking
// for an already-registered series returns the existing instance, so
// package-level metric vars and per-call registration both work.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// getFamily finds or creates the named family, enforcing one kind per name.
func (r *Registry) getFamily(name, help string, kind metricKind) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind}
		r.families[name] = f
		r.order = append(r.order, name)
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %s re-registered as %s (was %s)", name, kind, f.kind))
	}
	return f
}

// find returns the family's series with exactly these labels, or nil.
func (f *family) find(labels []Label) *series {
	for _, s := range f.series {
		if labelsEqual(s.labels, labels) {
			return s
		}
	}
	return nil
}

func labelsEqual(a, b []Label) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Counter returns the registered counter for (name, labels), creating it on
// first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, kindCounter)
	if s := f.find(labels); s != nil {
		return s.counter
	}
	s := &series{labels: labels, counter: &Counter{}}
	f.series = append(f.series, s)
	return s.counter
}

// Gauge returns the registered gauge for (name, labels), creating it on
// first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, kindGauge)
	if s := f.find(labels); s != nil {
		return s.gauge
	}
	s := &series{labels: labels, gauge: &Gauge{}}
	f.series = append(f.series, s)
	return s.gauge
}

// Histogram returns the registered histogram for (name, labels) with the
// given upper bounds, creating it on first use (the bounds of an existing
// series are kept).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, kindHistogram)
	if s := f.find(labels); s != nil {
		return s.hist
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	s := &series{labels: labels, hist: &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b))}}
	f.series = append(f.series, s)
	return s.hist
}

// CounterFunc registers a counter series whose value is sampled by fn at
// scrape time — for subsystems that already keep their own monotonic
// counters. Re-registering the same (name, labels) replaces fn.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.registerFunc(name, help, kindCounter, fn, labels)
}

// GaugeFunc is CounterFunc for gauges (e.g. runtime.NumGoroutine at scrape).
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.registerFunc(name, help, kindGauge, fn, labels)
}

func (r *Registry) registerFunc(name, help string, kind metricKind, fn func() float64, labels []Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, kind)
	if s := f.find(labels); s != nil {
		s.collect = fn
		return
	}
	f.series = append(f.series, &series{labels: labels, collect: fn})
}

// WritePrometheus renders every registered family in Prometheus text
// exposition format (version 0.0.4): HELP and TYPE once per family, one
// line per series (histograms expand to _bucket/_sum/_count), families in
// registration order, series in label order within a family.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.Unlock()

	for _, f := range fams {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		r.mu.Lock()
		ss := append([]*series(nil), f.series...)
		r.mu.Unlock()
		sort.Slice(ss, func(i, j int) bool { return labelString(ss[i].labels) < labelString(ss[j].labels) })
		for _, s := range ss {
			if err := writeSeries(w, f, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, f *family, s *series) error {
	ls := labelString(s.labels)
	switch {
	case s.hist != nil:
		var cum uint64
		for i, b := range s.hist.bounds {
			cum += s.hist.counts[i].Load()
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelStringWith(s.labels, "le", formatFloat(b)), cum); err != nil {
				return err
			}
		}
		cum += s.hist.inf.Load()
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelStringWith(s.labels, "le", "+Inf"), cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, ls, formatFloat(s.hist.Sum())); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, ls, s.hist.Count())
		return err
	case s.collect != nil:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, ls, formatFloat(s.collect()))
		return err
	case s.counter != nil:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, ls, s.counter.Value())
		return err
	case s.gauge != nil:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, ls, formatFloat(s.gauge.Value()))
		return err
	}
	return nil
}

// labelString renders {k="v",...} ("" when empty).
func labelString(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, escapeLabel(l.Value))
	}
	b.WriteByte('}')
	return b.String()
}

// labelStringWith is labelString with one extra pair appended (the
// histogram "le" bound).
func labelStringWith(labels []Label, key, value string) string {
	all := make([]Label, 0, len(labels)+1)
	all = append(all, labels...)
	all = append(all, Label{Key: key, Value: value})
	return labelString(all)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	// %q already escapes backslash, quote and newline the way the
	// exposition format wants; the value goes through labelString's %q.
	return s
}

// formatFloat renders a float the way Prometheus parsers expect: shortest
// round-trip representation, integers without an exponent.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
