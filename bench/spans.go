package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one interval of the benchmark's own trace. Host spans are in
// seconds since the benchmark started; simulated spans, imported from a
// child's -trace file, are in simulated seconds on that child's device
// clock. Parent is the id of the span that caused this one, 0 for a root.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	Clock  string  `json:"clock"` // "host" or "sim"
}

// spanLog keeps every span in memory until the benchmark ends. Only the
// main goroutine records.
type spanLog struct {
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a host span now and returns its id; end closes it.
func (l *spanLog) begin(parent int, name string) int {
	return l.add(parent, name, time.Since(l.t0).Seconds(), 0, "host")
}

func (l *spanLog) end(id int) { l.spans[id-1].End = time.Since(l.t0).Seconds() }

func (l *spanLog) add(parent int, name string, start, end float64, clock string) int {
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Start: start, End: end, Clock: clock})
	return id
}

// hostAt records a closed host span from wall-clock instants.
func (l *spanLog) hostAt(parent int, name string, start, end time.Time) int {
	return l.add(parent, name, start.Sub(l.t0).Seconds(), end.Sub(l.t0).Seconds(), "host")
}

// importSim files a child's simulated spans under the host span of the run
// that produced them. A -trace file lists spans as they end, children
// before the span that encloses them, with their nesting depth; a span's
// parent is therefore the next span one level up on its track.
func (l *spanLog) importSim(parent int, spans []simSpan) {
	type key struct {
		track string
		depth int
	}
	waiting := map[key][]int{}
	tracks := map[string]int{}
	for _, s := range spans {
		if _, ok := tracks[s.Track]; !ok {
			tracks[s.Track] = l.add(parent, s.Track, 0, 0, "sim")
		}
		id := l.add(tracks[s.Track], s.Name, s.StartUS/1e6, (s.StartUS+s.DurUS)/1e6, "sim")
		for _, c := range waiting[key{s.Track, s.Depth + 1}] {
			l.spans[c-1].Parent = id
		}
		delete(waiting, key{s.Track, s.Depth + 1})
		waiting[key{s.Track, s.Depth}] = append(waiting[key{s.Track, s.Depth}], id)
		if tr := &l.spans[tracks[s.Track]-1]; tr.End < (s.StartUS+s.DurUS)/1e6 {
			tr.End = (s.StartUS + s.DurUS) / 1e6
		}
	}
}

func (l *spanLog) write(path string) error {
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{l.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
