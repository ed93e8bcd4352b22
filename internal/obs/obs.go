// Package obs is the deterministic tracing and metrics layer of the
// simulator: phase-attributed spans and a typed metrics registry, both
// driven exclusively by the simulated nvm cost clock — never wall time.
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
// like the device it observes: it is not safe for concurrent use. Sweeps
// collect one Recorder per cell and merge them, in cell order, into a
// Trace (see sched.Collector), which exports to Chrome trace-event JSON
// (Perfetto-loadable) — spans only: the counters and histograms a run records
// reach a Track but, so far, no exporter.
package obs

import (
	"fmt"
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

// metric is one registry entry, a counter or a histogram for good.
type metric struct {
	name  string
	value int64      // the counter's
	hist  *Histogram // nil for a counter
}

// openSpan is a stack frame of an in-flight Begin.
type openSpan struct {
	name  string
	start int64
	depth int
}

// Recorder collects spans and metrics for one simulation cell. The zero
// value is not usable; construct with NewRecorder. A nil *Recorder is a
// valid "tracing disabled" recorder: every method is a no-op.
type Recorder struct {
	clock   *nvm.Clock
	spans   []Span
	stack   []openSpan
	names   map[string]int
	metrics []metric
}

// NewRecorder returns a recorder reading timestamps from the given
// simulated clock.
func NewRecorder(clock *nvm.Clock) *Recorder {
	if clock == nil {
		panic("obs: NewRecorder needs a clock")
	}
	return &Recorder{clock: clock, names: make(map[string]int)}
}

// Enabled reports whether the recorder actually records (r != nil). Call
// sites never need it for correctness — it exists to skip expensive label
// construction.
func (r *Recorder) Enabled() bool { return r != nil }

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

// lookup finds the registry entry for name, or creates it: a histogram over
// bounds, or with nil bounds a counter.
func (r *Recorder) lookup(name string, bounds []int64) *metric {
	i, ok := r.names[name]
	if !ok {
		i = len(r.metrics)
		r.names[name] = i
		r.metrics = append(r.metrics, metric{name: name})
		if bounds != nil {
			r.metrics[i].hist = NewHistogram(bounds)
			r.metrics[i].hist.Name = name
		}
	}
	m := &r.metrics[i]
	if (m.hist != nil) != (bounds != nil) {
		panic(fmt.Sprintf("obs: metric %q re-registered as a different kind", name))
	}
	return m
}

// Count adds delta to the named counter.
func (r *Recorder) Count(name string, delta int64) {
	if r == nil {
		return
	}
	r.lookup(name, nil).value += delta
}

// Histogram returns the named histogram, its ascending inclusive bucket
// bounds fixed at this first mention. A caller that reports from the samples
// whether or not the run is traced keeps the result and observes into it
// directly, once per sample: a nil recorder hands out a free-standing
// histogram.
func (r *Recorder) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return NewHistogram(bounds)
	}
	return r.lookup(name, bounds).hist
}

// Observe adds one sample to the named histogram.
func (r *Recorder) Observe(name string, bounds []int64, v int64) {
	if r == nil {
		return
	}
	r.Histogram(name, bounds).Observe(v)
}

// PauseBounds are the bucket upper bounds (simulated picoseconds) of the
// checkpoint-pause histogram: 1 µs to ~4.2 s in factor-of-4 steps.
var PauseBounds = ExpBounds(1_000_000, 4, 12)

// StepBounds are the bucket upper bounds (simulated picoseconds) of the
// incremental-checkpoint quantum-duration histogram: 100 ns to ~6.7 s in
// factor-of-4 steps, one decade finer than PauseBounds so sub-microsecond
// pause budgets still resolve.
var StepBounds = ExpBounds(100_000, 4, 14)

// StalenessBounds are the bucket upper bounds (committed epochs behind
// the primary) of the per-replica staleness histogram; 0 is a replica
// fully caught up at its last install.
var StalenessBounds = []int64{0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32}

// AmpBounds are the bucket upper bounds (percent) of the per-epoch media
// write-amplification histogram: 100% is amplification-free.
var AmpBounds = []int64{100, 125, 150, 200, 300, 400, 600, 800, 1200, 1600, 3200, 6400}

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

// RecordEpoch folds one epoch's device-stat delta into the registry —
// subsuming the flat per-epoch nvm.Stats diffing the harnesses used to do
// by hand — and feeds the two headline histograms: checkpoint pause and
// media write amplification (media bytes over bytes actually persisted:
// flushed lines plus non-temporal stores).
func (r *Recorder) RecordEpoch(delta nvm.Stats, pausePS int64) {
	if r == nil {
		return
	}
	delta.Visit(func(name string, v int64) {
		if v != 0 {
			r.Count("stats/"+name, v)
		}
	})
	r.Count("epochs", 1)
	r.Observe("ckpt/pause_ps", PauseBounds, pausePS)
	persisted := delta.FlushedLines*nvm.LineSize + delta.NTStoreBytes
	if persisted > 0 {
		r.Observe("ckpt/write_amp_pct", AmpBounds, delta.MediaWriteBytes*100/persisted)
	}
}

// SpanTotal aggregates every span of one name.
type SpanTotal struct {
	Name  string
	Count int
	Ticks int64
}

// SpanTotals returns per-name span aggregates, sorted by name.
func (r *Recorder) SpanTotals() []SpanTotal {
	if r == nil {
		return nil
	}
	idx := make(map[string]int)
	var out []SpanTotal
	for _, s := range r.spans {
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

// Counter is an exported registry view.
type Counter struct {
	Name  string
	Value int64
}

// Track is the immutable snapshot of one cell's recorder, labelled for
// merge into a Trace. Metric slices are sorted by name so merged output is
// independent of registration order.
type Track struct {
	Label      string
	Spans      []Span
	Counters   []Counter
	Histograms []Histogram
}

// Snapshot captures the recorder's state as a labelled track. A nil
// recorder snapshots to an empty track.
func (r *Recorder) Snapshot(label string) Track {
	t := Track{Label: label}
	if r == nil {
		return t
	}
	t.Spans = append([]Span(nil), r.spans...)
	names := make([]string, 0, len(r.metrics))
	for _, m := range r.metrics {
		names = append(names, m.name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.metrics[r.names[name]]
		if m.hist == nil {
			t.Counters = append(t.Counters, Counter{Name: m.name, Value: m.value})
			continue
		}
		h := *m.hist
		h.counts = slices.Clone(h.counts)
		t.Histograms = append(t.Histograms, h)
	}
	return t
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
