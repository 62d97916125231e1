// Package scenario turns the paper's dynamic-network model (§5) and the
// repeated-arrivals literature into a first-class, declarative experiment
// dimension: a Scenario is a named, parameterized, seed-reproducible
// (arrival process × perturbation schedule × topology churn) triple that a
// round loop can consult between balancing rounds — inject load here, swap
// the active graph there — while every draw stays deterministic given the
// scenario's RNG stream.
//
// Scenarios are described by strings in the style of internal/topoparse,
// with optional ':'-separated parameters (comma-free, so a list of
// scenarios survives a comma-separated CLI flag):
//
//	static                        one-shot initial load, fixed graph
//	poisson-arrivals[:rate]       Poisson job arrivals on random nodes
//	bursty[:period[:frac]]        periodic bursts on a random node
//	adversarial-respike[:every[:frac]]  re-spike the most-loaded node
//	hotspot-drift[:rate[:period]] drifting hotspot fed every round
//	edge-churn[:p]                every edge fails independently per round
//	periodic-failures[:period[:count]]  edge sets fail for whole periods
//
// Parse canonicalizes (defaults applied, floats 'g'-formatted), so
// Parse(s).String() is a stable grid-dimension value: the batch engine
// dedups on it, journals record it, and a unit's RNG stream is derived
// from it. The topology-churn scenarios ride the internal/dynamic sequence
// generators (RandomSubgraphs, EdgeFailures) rather than reimplementing
// them.
package scenario

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind enumerates the built-in scenario generators.
type Kind int

const (
	// Static is the classic one-shot run: no arrivals, no churn. The zero
	// value, so an unset scenario means "exactly the pre-scenario engine".
	Static Kind = iota
	// PoissonArrivals injects Poisson-distributed job arrivals onto
	// uniformly random nodes every round (the repeated balls-into-bins
	// regime: the system balances while load keeps landing).
	PoissonArrivals
	// Bursty injects one large burst onto a uniformly random node every
	// fixed number of rounds — calm stretches punctuated by shocks.
	Bursty
	// AdversarialRespike re-spikes the currently most-loaded node on a
	// fixed cadence: the adversary always pushes where it hurts most.
	AdversarialRespike
	// HotspotDrift feeds a hotspot node every round while the hotspot
	// performs a neighbor random walk on the base topology.
	HotspotDrift
	// EdgeChurn fails every edge independently per round (the §5 dynamic
	// model with i.i.d. per-round subgraphs of the base topology).
	EdgeChurn
	// PeriodicFailures fails a fresh random edge set every period and keeps
	// it down for the whole period — flaky links with repair cycles.
	PeriodicFailures
	// Trace replays a recorded arrival trace (JSONL events, see
	// ReadTraceFile) round-for-round on the fixed base graph. Written as
	// trace:<file>; the path is carried in Spec.Path, not Params, and is
	// the only scenario input whose case is preserved. Draws nothing from
	// the RNG, so replay is deterministic by construction — a trace
	// captured from a live lbserved session re-runs byte-identically as a
	// grid dimension.
	Trace

	// kindCount counts the kinds above. A new Kind constant must be
	// inserted before it (and given a name/description/parser arm), or the
	// registry round-trip test fails — which is the point: an unregistered
	// generator should fail in tests, not at sweep time.
	kindCount
)

// String returns the kind's base name (without parameters).
func (k Kind) String() string {
	switch k {
	case Static:
		return "static"
	case PoissonArrivals:
		return "poisson-arrivals"
	case Bursty:
		return "bursty"
	case AdversarialRespike:
		return "adversarial-respike"
	case HotspotDrift:
		return "hotspot-drift"
	case EdgeChurn:
		return "edge-churn"
	case PeriodicFailures:
		return "periodic-failures"
	case Trace:
		return "trace"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// AllKinds lists every registered scenario kind in declaration order. It is
// derived from the kindCount sentinel, so it cannot drift out of sync with
// the const block.
func AllKinds() []Kind {
	out := make([]Kind, kindCount)
	for i := range out {
		out[i] = Kind(i)
	}
	return out
}

// ParseKind converts a base name (as produced by Kind.String) into a Kind.
func ParseKind(s string) (Kind, error) {
	for _, k := range AllKinds() {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("scenario: unknown scenario %q (accepted: %s)", s, strings.Join(Names(), " "))
}

// Names lists the accepted base names in display order.
func Names() []string {
	out := make([]string, 0, kindCount)
	for _, k := range AllKinds() {
		out = append(out, k.String())
	}
	return out
}

// Descriptions returns each base name (with its parameter syntax) and a
// one-line description, in display order — the -list surface.
func Descriptions() [][2]string {
	return [][2]string{
		{"static", "one-shot initial load on a fixed graph (the classic run)"},
		{"poisson-arrivals[:rate]", "Poisson job arrivals on random nodes, ~rate·load per round (default rate 0.01)"},
		{"bursty[:period[:frac]]", "a frac·load burst on a random node every period rounds (defaults 16, 0.25)"},
		{"adversarial-respike[:every[:frac]]", "re-spike the currently most-loaded node with frac·load every `every` rounds (defaults 8, 0.5)"},
		{"hotspot-drift[:rate[:period]]", "feed a drifting hotspot rate·load per round; it walks to a random neighbor every period rounds (defaults 0.02, 4)"},
		{"edge-churn[:p]", "every edge fails independently with probability p each round (default 0.1)"},
		{"periodic-failures[:period[:count]]", "count random edges fail for each period-round stretch (defaults 8, 2)"},
		{"trace:<file.jsonl>", "replay a recorded arrival trace (JSONL {\"k\",\"node\",\"amt\"} events) round-for-round"},
	}
}

// DefaultHorizon is the round cap for scenario runs when the caller sets
// none: an ongoing arrival process has no convergence round to stop at, so
// the run observes a fixed window instead.
const DefaultHorizon = 512

// Spec is one parsed scenario: a kind plus its canonical parameter values.
// The zero value is the static scenario.
type Spec struct {
	Kind   Kind
	Params []float64
	// Path is the trace file for Kind == Trace ("" otherwise). Unlike
	// every other scenario input it is case-preserved — it names a real
	// file.
	Path string
}

// paramDef describes one parameter's name, default and validity range.
type paramDef struct {
	name     string
	def      float64
	min, max float64 // inclusive bounds; max 0 means unbounded above
	integer  bool
}

// params declares each kind's parameter schema, in positional order.
func (k Kind) params() []paramDef {
	switch k {
	case PoissonArrivals:
		return []paramDef{{name: "rate", def: 0.01, min: 1e-9}}
	case Bursty:
		return []paramDef{
			{name: "period", def: 16, min: 1, integer: true},
			{name: "frac", def: 0.25, min: 1e-9},
		}
	case AdversarialRespike:
		return []paramDef{
			{name: "every", def: 8, min: 1, integer: true},
			{name: "frac", def: 0.5, min: 1e-9},
		}
	case HotspotDrift:
		return []paramDef{
			{name: "rate", def: 0.02, min: 1e-9},
			{name: "period", def: 4, min: 1, integer: true},
		}
	case EdgeChurn:
		return []paramDef{{name: "p", def: 0.1, min: 1e-9, max: 0.999999}}
	case PeriodicFailures:
		return []paramDef{
			{name: "period", def: 8, min: 1, integer: true},
			{name: "count", def: 2, min: 1, integer: true},
		}
	default:
		return nil
	}
}

// Parse turns a scenario description ("adversarial-respike",
// "poisson-arrivals:0.05", "bursty:32:0.5") into a Spec with defaults
// applied and parameters validated. The canonical form is Spec.String();
// Parse∘String is the identity on canonical forms.
func Parse(s string) (Spec, error) {
	raw := strings.TrimSpace(s)
	// trace:<file> carries a filesystem path, matched before the
	// lowercasing below so the path's case survives.
	if path, ok := strings.CutPrefix(raw, "trace:"); ok {
		if err := checkTracePath(path); err != nil {
			return Spec{}, err
		}
		return Spec{Kind: Trace, Path: path}, nil
	}
	parts := strings.Split(strings.ToLower(raw), ":")
	kind, err := ParseKind(parts[0])
	if err != nil {
		return Spec{}, err
	}
	if kind == Trace {
		return Spec{}, fmt.Errorf("scenario: trace needs a file path (trace:<file.jsonl>)")
	}
	defs := kind.params()
	if len(parts)-1 > len(defs) {
		return Spec{}, fmt.Errorf("scenario: %s takes at most %d parameter(s), got %q", kind, len(defs), s)
	}
	params := make([]float64, len(defs))
	for i, d := range defs {
		params[i] = d.def
		if i+1 < len(parts) {
			v, err := strconv.ParseFloat(strings.TrimSpace(parts[i+1]), 64)
			if err != nil {
				return Spec{}, fmt.Errorf("scenario: %s: bad %s %q", kind, d.name, parts[i+1])
			}
			params[i] = v
		}
		if err := defs[i].check(kind, params[i]); err != nil {
			return Spec{}, err
		}
	}
	return Spec{Kind: kind, Params: params}, nil
}

// checkTracePath rejects trace paths that could not survive the pipeline:
// empty (no file named), commas (the CLI splits scenario lists on them),
// and whitespace/control characters (journals and emitted shell plans
// carry the canonical string unquoted).
func checkTracePath(path string) error {
	if path == "" {
		return fmt.Errorf("scenario: trace needs a file path (trace:<file.jsonl>)")
	}
	if i := strings.IndexFunc(path, func(r rune) bool { return r == ',' || r <= ' ' }); i >= 0 {
		return fmt.Errorf("scenario: trace path %q may not contain commas, whitespace or control characters", path)
	}
	return nil
}

// check validates one parameter value against its schema.
func (d paramDef) check(k Kind, v float64) error {
	if v < d.min {
		return fmt.Errorf("scenario: %s: %s %g must be ≥ %g", k, d.name, v, d.min)
	}
	if d.max > 0 && v > d.max {
		return fmt.Errorf("scenario: %s: %s %g must be ≤ %g", k, d.name, v, d.max)
	}
	if d.integer && v != float64(int(v)) {
		return fmt.Errorf("scenario: %s: %s %g must be an integer", k, d.name, v)
	}
	return nil
}

// String returns the canonical form: the base name with every parameter
// (defaults included) ':'-joined, so equal scenarios have equal strings and
// a journal column names the exact process that ran.
func (s Spec) String() string {
	if s.Kind == Trace {
		return "trace:" + s.Path
	}
	if len(s.Params) == 0 {
		return s.Kind.String()
	}
	parts := make([]string, 0, len(s.Params)+1)
	parts = append(parts, s.Kind.String())
	for _, p := range s.Params {
		parts = append(parts, strconv.FormatFloat(p, 'g', -1, 64))
	}
	return strings.Join(parts, ":")
}

// IsStatic reports whether s is the no-op scenario (the classic one-shot
// run with no arrivals and no churn).
func (s Spec) IsStatic() bool { return s.Kind == Static }

// param returns the i-th parameter, falling back to the schema default —
// so a hand-constructed Spec{Kind: Bursty} (no Params) still runs with the
// documented defaults.
func (s Spec) param(i int) float64 {
	if i < len(s.Params) {
		return s.Params[i]
	}
	return s.Kind.params()[i].def
}
