package harness

import (
	"sync"
	"sync/atomic"

	"libcrpm/internal/obs"
)

// tracing is the harness-wide switch the CLIs flip with SetTracing. When
// on, NewDSSetup attaches an obs.Recorder to every cell it builds (one per
// simulated device, exactly like the device itself), and the traced
// experiments merge those recorders — in cell order, via sched's ordered
// reduction — into a process-wide trace. Because every span timestamp is
// simulated picoseconds, the merged trace is byte-identical at any
// -parallel level. Tables and CSVs never include trace data, so printed
// output is also identical with tracing on or off.
var tracing atomic.Bool

// globalTrace accumulates the tracks of every traced experiment run since
// the last TakeTrace. Experiments run sequentially and append their cells
// in sweep order, so track order is deterministic; the mutex only guards
// against racing CLIs.
var (
	traceMu     sync.Mutex
	globalTrace obs.Trace
)

// SetTracing turns per-cell phase tracing on or off for subsequently built
// setups. Off (the default) costs nothing: recorders stay nil and every
// span call is a nil-receiver no-op.
func SetTracing(on bool) { tracing.Store(on) }

// Tracing reports whether per-cell tracing is enabled.
func Tracing() bool { return tracing.Load() }

// TakeTrace returns the trace accumulated by traced experiments since the
// last call and resets the accumulator. Returns nil if nothing was traced.
func TakeTrace() *obs.Trace {
	traceMu.Lock()
	defer traceMu.Unlock()
	if len(globalTrace.Tracks) == 0 {
		return nil
	}
	tr := globalTrace
	globalTrace = obs.Trace{}
	return &tr
}

// trace folds one cell's recorder into an experiment's results: span tick
// totals become span_ms/<label>/<name> table metrics (machine-readable only —
// excluded from CSV/String, so printed tables stay byte-identical), and the
// recorder becomes one labelled track of the process-wide trace. Figures call
// it in cell order; a nil recorder (tracing off) adds nothing.
func (t *Table) trace(label string, r *obs.Recorder) {
	if r != nil {
		t.traceTrack(r.Snapshot(label))
	}
}

// traceTrack is trace for a cell whose spans come as a track already, a
// service run's from its Result.Trace.
func (t *Table) traceTrack(tr obs.Track) {
	for _, st := range tr.SpanTotals() {
		t.AddMetric("span_ms/"+tr.Label+"/"+st.Name, float64(st.Ticks)/1e9)
	}
	traceMu.Lock()
	defer traceMu.Unlock()
	globalTrace.Tracks = append(globalTrace.Tracks, tr)
}
