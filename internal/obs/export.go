// The Chrome trace-event exporter for obs traces.
//
// The serializer is hand-rolled over sorted, ordered data — no map
// iteration, no float formatting — so the bytes are a pure function of the
// trace content. The golden tests pin that property.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// psToUS renders a picosecond timestamp as a microsecond decimal with full
// precision (Chrome trace-event "ts"/"dur" are µs doubles; six fractional
// digits keep every picosecond and format deterministically).
func psToUS(ps int64) string {
	return fmt.Sprintf("%d.%06d", ps/1_000_000, ps%1_000_000)
}

// WriteTraceFile is how a CLI's -trace flag writes its file: tr, or an empty
// trace for a run that recorded none, as Chrome trace-event JSON in a new file
// at path. It reports how many tracks the file holds.
func WriteTraceFile(path string, tr *Trace) (int, error) {
	if tr == nil {
		tr = &Trace{}
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	err = WriteChromeTrace(f, tr)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return len(tr.Tracks), err
}

// WriteChromeTrace serializes the trace in Chrome trace-event JSON array
// format, loadable by Perfetto (ui.perfetto.dev) and chrome://tracing.
// Each track becomes one thread (tid = track index + 1) named by its label
// via a metadata event; each span becomes a complete ("X") duration event
// with simulated-µs ts/dur and its nesting depth in args.
func WriteChromeTrace(w io.Writer, tr *Trace) error {
	bw := &errWriter{w: w}
	bw.str(`{"displayTimeUnit":"ns","traceEvents":[`)
	first := true
	sep := func() {
		if !first {
			bw.str(",\n")
		} else {
			bw.str("\n")
			first = false
		}
	}
	for ti, track := range tr.Tracks {
		tid := ti + 1
		label, err := json.Marshal(track.Label)
		if err != nil {
			return err
		}
		sep()
		bw.str(fmt.Sprintf(`{"ph":"M","pid":1,"tid":%d,"name":"thread_name","args":{"name":%s}}`, tid, label))
		for _, s := range track.Spans {
			name, err := json.Marshal(s.Name)
			if err != nil {
				return err
			}
			sep()
			bw.str(fmt.Sprintf(`{"ph":"X","pid":1,"tid":%d,"name":%s,"ts":%s,"dur":%s,"args":{"depth":%d}}`,
				tid, name, psToUS(s.Start), psToUS(s.Ticks), s.Depth))
		}
	}
	bw.str("\n]}\n")
	return bw.err
}

// errWriter accumulates the first write error so serializers can stay
// branch-free per line.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) str(s string) {
	if e.err != nil {
		return
	}
	_, e.err = io.WriteString(e.w, s)
}
