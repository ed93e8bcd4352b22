package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"libcrpm/internal/nvm"
)

func testClock() *nvm.Clock {
	return nvm.NewDevice(4096).Clock()
}

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	// None of these may panic or allocate state.
	r.Begin("x")
	r.End()
	r.Observe("h", PauseBounds, 3)
	if got := r.Spans(); got != nil {
		t.Fatalf("nil recorder has spans: %v", got)
	}
	tr := &Trace{}
	tr.Add("cell", r)
	if len(tr.Tracks) != 0 {
		t.Fatal("nil recorder added a track")
	}
	snap := r.Snapshot("cell")
	if snap.Label != "cell" || snap.Spans != nil || snap.Histograms != nil || snap.SpanTotals() != nil {
		t.Fatalf("nil snapshot not empty: %+v", snap)
	}
}

func TestSpanNesting(t *testing.T) {
	clock := testClock()
	r := NewRecorder(clock)
	r.Begin("outer")
	clock.Advance(100)
	r.Begin("inner")
	clock.Advance(50)
	r.End()
	clock.Advance(25)
	r.End()
	spans := r.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	// Completion order: inner first.
	inner, outer := spans[0], spans[1]
	if inner.Name != "inner" || outer.Name != "outer" {
		t.Fatalf("span order wrong: %+v", spans)
	}
	if inner.Depth != 1 || outer.Depth != 0 {
		t.Fatalf("depths wrong: inner=%d outer=%d", inner.Depth, outer.Depth)
	}
	if inner.Ticks != 50 || outer.Ticks != 175 {
		t.Fatalf("ticks wrong: inner=%d outer=%d", inner.Ticks, outer.Ticks)
	}
	if inner.Start != outer.Start+100 || inner.End-inner.Start != inner.Ticks {
		t.Fatalf("timestamps inconsistent: %+v", spans)
	}
}

func TestEndWithoutBeginPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unbalanced End did not panic")
		}
	}()
	NewRecorder(testClock()).End()
}

func TestObserve(t *testing.T) {
	r := NewRecorder(testClock())
	bounds := []int64{10, 100}
	for _, v := range []int64{5, 10, 11, 1000} {
		r.Observe("lat", bounds, v)
	}
	tr := r.Snapshot("cell")
	h := tr.Histograms["lat"]
	if len(tr.Histograms) != 1 || h == nil {
		t.Fatalf("histograms: %+v", tr.Histograms)
	}
	// Buckets: <=10 gets 5 and 10; <=100 gets 11; +Inf gets 1000.
	want := []int64{2, 1, 1}
	for i := range want {
		if c := h.count(i); c != want[i] {
			t.Fatalf("bucket %d: got %d want %d (window %d, %v)", i, c, want[i], h.lo, h.counts)
		}
	}
	if h.N() != 4 || h.Sum() != 1026 || h.Max() != 1000 {
		t.Fatalf("histogram stats: %+v", h)
	}
	// The snapshot is a copy of the histogram later samples go to.
	r.Observe("lat", bounds, 7)
	if h.N() != 4 || r.Snapshot("cell").Histograms["lat"].N() != 5 {
		t.Fatalf("snapshot aliases the live histogram")
	}
}

func TestSpanTotals(t *testing.T) {
	clock := testClock()
	r := NewRecorder(clock)
	for i := 0; i < 3; i++ {
		r.Begin("b")
		clock.Advance(10)
		r.End()
		r.Begin("a")
		clock.Advance(5)
		r.End()
	}
	tr := r.Snapshot("cell")
	tot := tr.SpanTotals()
	if len(tot) != 2 || tot[0].Name != "a" || tot[1].Name != "b" {
		t.Fatalf("totals not sorted by name: %+v", tot)
	}
	if tot[0].Count != 3 || tot[0].Ticks != 15 || tot[1].Ticks != 30 {
		t.Fatalf("totals wrong: %+v", tot)
	}
}

func TestChromeTraceExport(t *testing.T) {
	clock := testClock()
	r := NewRecorder(clock)
	clock.Advance(1_234_567) // 1.234567 µs
	r.Begin(`phase "q"`)     // name needing JSON escaping
	clock.Advance(2_000_000)
	r.End()
	tr := &Trace{}
	tr.Add("cell,one", r)

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// The file must be valid JSON with the trace-event shape.
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Name string         `json:"name"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("got %d events, want metadata + span:\n%s", len(doc.TraceEvents), out)
	}
	meta, span := doc.TraceEvents[0], doc.TraceEvents[1]
	if meta.Ph != "M" || meta.Name != "thread_name" || meta.Args["name"] != "cell,one" {
		t.Fatalf("metadata event: %+v", meta)
	}
	if span.Ph != "X" || span.Name != `phase "q"` || span.Tid != 1 {
		t.Fatalf("span event: %+v", span)
	}
	// Timestamps are exact µs decimals of the ps values.
	if !strings.Contains(out, `"ts":1.234567`) || !strings.Contains(out, `"dur":2.000000`) {
		t.Fatalf("timestamp formatting:\n%s", out)
	}

	// The CLIs' -trace path: the same bytes in a file, a nil trace written as
	// an empty one, a failed create reported.
	path := filepath.Join(t.TempDir(), "trace.json")
	if n, err := WriteTraceFile(path, tr); err != nil || n != 1 {
		t.Fatalf("WriteTraceFile: %d tracks, %v", n, err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, buf.Bytes()) {
		t.Fatalf("file differs from WriteChromeTrace's bytes (%v)", err)
	}
	if n, err := WriteTraceFile(path, nil); err != nil || n != 0 {
		t.Fatalf("nil trace: %d tracks, %v", n, err)
	}
	if got, _ := os.ReadFile(path); !json.Valid(got) {
		t.Fatalf("nil trace wrote invalid JSON: %s", got)
	}
	if _, err := WriteTraceFile(filepath.Join(path, "under-a-file"), tr); err == nil {
		t.Fatal("create under a regular file succeeded")
	}
}

func TestChromeTraceDeterministic(t *testing.T) {
	build := func() *Trace {
		clock := testClock()
		r := NewRecorder(clock)
		for i := 0; i < 4; i++ {
			r.Begin("p")
			clock.Advance(int64(i+1) * 7)
			r.End()
		}
		r.Observe("z", PauseBounds, 1)
		r.Observe("a", PauseBounds, 2)
		tr := &Trace{}
		tr.Add("cell", r)
		return tr
	}
	var a, b bytes.Buffer
	if err := WriteChromeTrace(&a, build()); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeTrace(&b, build()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("identical traces serialized differently")
	}
}

func TestExpBounds(t *testing.T) {
	b := ExpBounds(2, 3, 4)
	want := []int64{2, 6, 18, 54}
	for i, v := range b {
		if v != want[i] {
			t.Fatalf("bounds %v, want %v", b, want)
		}
	}
}
