// Package obs is the deterministic tracing layer of the simulator:
// phase-attributed spans driven exclusively by the simulated nvm cost clock —
// never wall time.
//
// Because every timestamp is simulated picoseconds, a trace is a pure
// function of the workload and the cost model: running the same cell
// serially or under an 8-worker sweep produces byte-identical output, an
// observability property real NVM rigs cannot offer (their traces jitter
// with the measurement). The layer is zero-overhead when disabled: all
// Recorder methods are nil-receiver safe no-ops, so call sites need no
// guard and hot paths pay nothing beyond a dead branch.
//
// A Recorder belongs to one simulation cell (one device/clock), exactly
// like the device it observes: it is not safe for concurrent use. A sweep
// cell returns its Recorder with its result, and the sweep merges them, in
// cell order, into a Trace, which exports to Chrome trace-event JSON
// (Perfetto-loadable). The numbers a run reports live in its own result
// types; a recorder holds spans only, plus the histograms Observe keeps for
// the benchmark's obs.observe_ns rung.
package obs

import (
	"slices"
	"sort"

	"libcrpm/internal/nvm"
)

// Span is one phase-attributed interval on the simulated clock.
type Span struct {
	// Name is the phase label ("checkpoint", "flush", "cow", ...).
	Name string
	// Start and End are simulated picosecond timestamps.
	Start int64
	End   int64
	// Ticks is End - Start, the simulated time attributed to the phase.
	Ticks int64
	// Depth is the nesting depth at emission (0 = top level), so exporters
	// can rebuild the phase hierarchy without re-deriving containment.
	Depth int
}

// Traceable is implemented by checkpoint backends that can attach a
// Recorder after construction (the container and the instrumented
// baselines).
type Traceable interface {
	SetTrace(*Recorder)
}

// openSpan is a stack frame of an in-flight Begin.
type openSpan struct {
	name  string
	start int64
	depth int
}

// Recorder collects spans for one simulation cell. The zero value is not
// usable; construct with NewRecorder. A nil *Recorder is a valid "tracing
// disabled" recorder: every method is a no-op.
type Recorder struct {
	clock *nvm.Clock
	spans []Span
	stack []openSpan
	hists map[string]*Histogram
}

// NewRecorder returns a recorder reading timestamps from the given
// simulated clock.
func NewRecorder(clock *nvm.Clock) *Recorder {
	if clock == nil {
		panic("obs: NewRecorder needs a clock")
	}
	return &Recorder{clock: clock, hists: make(map[string]*Histogram)}
}

// Begin opens a span. Spans nest; each Begin must be matched by one End.
func (r *Recorder) Begin(name string) {
	if r == nil {
		return
	}
	r.stack = append(r.stack, openSpan{name: name, start: r.clock.NowPS(), depth: len(r.stack)})
}

// End closes the innermost open span and records it.
func (r *Recorder) End() {
	if r == nil {
		return
	}
	n := len(r.stack)
	if n == 0 {
		panic("obs: End without matching Begin")
	}
	o := r.stack[n-1]
	r.stack = r.stack[:n-1]
	now := r.clock.NowPS()
	r.spans = append(r.spans, Span{
		Name:  o.name,
		Start: o.start,
		End:   now,
		Ticks: now - o.start,
		Depth: o.depth,
	})
}

// Spans returns the recorded spans in completion order (children before
// their parents). The slice is owned by the recorder.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	return r.spans
}

// Observe adds one sample to the named histogram, its ascending inclusive
// bucket bounds fixed at the first sample. It is kept for one caller, the
// benchmark's obs.observe_ns rung; a run's reported numbers live in its own
// result types, never here.
func (r *Recorder) Observe(name string, bounds []int64, v int64) {
	if r == nil {
		return
	}
	h := r.hists[name]
	if h == nil {
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	h.Observe(v)
}

// PauseBounds are the bucket upper bounds (simulated picoseconds) of the
// checkpoint-pause histogram: 1 µs to ~4.2 s in factor-of-4 steps.
var PauseBounds = ExpBounds(1_000_000, 4, 12)

// StalenessBounds are the bucket upper bounds (committed epochs behind
// the primary) of the per-replica staleness histogram; 0 is a replica
// fully caught up at its last install.
var StalenessBounds = []int64{0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32}

// ExpBounds builds n exponential bucket bounds: start, start*factor, ...
func ExpBounds(start int64, factor int64, n int) []int64 {
	out := make([]int64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Track is the immutable snapshot of one cell's recorder, labelled for
// merge into a Trace.
type Track struct {
	Label      string
	Spans      []Span
	Histograms map[string]*Histogram
}

// Snapshot captures the recorder's state as a labelled track. A nil
// recorder snapshots to an empty track.
func (r *Recorder) Snapshot(label string) Track {
	t := Track{Label: label}
	if r == nil {
		return t
	}
	t.Spans = append([]Span(nil), r.spans...)
	t.Histograms = make(map[string]*Histogram, len(r.hists))
	for name, h := range r.hists {
		c := *h
		c.counts = slices.Clone(h.counts)
		t.Histograms[name] = &c
	}
	return t
}

// SpanTotal aggregates every span of one name.
type SpanTotal struct {
	Name  string
	Count int
	Ticks int64
}

// SpanTotals returns per-name span aggregates, sorted by name.
func (t Track) SpanTotals() []SpanTotal {
	idx := make(map[string]int)
	var out []SpanTotal
	for _, s := range t.Spans {
		i, ok := idx[s.Name]
		if !ok {
			i = len(out)
			idx[s.Name] = i
			out = append(out, SpanTotal{Name: s.Name})
		}
		out[i].Count++
		out[i].Ticks += s.Ticks
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Trace is an ordered collection of tracks — one per simulation cell —
// ready for export. Track order is the merge order, so callers reducing a
// parallel sweep must add tracks in cell order (not completion order).
type Trace struct {
	Tracks []Track
}

// Add snapshots a recorder into the trace. Nil recorders are skipped, so
// sweeps can pass through cells that ran with tracing disabled.
func (t *Trace) Add(label string, r *Recorder) {
	if r == nil {
		return
	}
	t.Tracks = append(t.Tracks, r.Snapshot(label))
}
