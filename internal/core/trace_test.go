package core

import (
	"testing"

	"libcrpm/internal/nvm"
	"libcrpm/internal/obs"
	"libcrpm/internal/region"
)

// tracedContainer builds a small container with a recorder attached.
func tracedContainer(t *testing.T, opts Options) (*nvm.Device, *Container, *obs.Recorder) {
	t.Helper()
	l, err := region.NewLayout(opts.Region)
	if err != nil {
		t.Fatal(err)
	}
	dev := nvm.NewDevice(l.DeviceSize())
	t.Cleanup(dev.Close)
	opts.Trace = obs.NewRecorder(dev.Clock())
	c, err := NewContainer(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	return dev, c, opts.Trace
}

func spanNames(spans []obs.Span) map[string]int {
	m := map[string]int{}
	for _, s := range spans {
		m[s.Name]++
	}
	return m
}

// TestCheckpointSpansDefault pins the phase structure of a default-mode
// checkpoint: one checkpoint span per call containing dirty-scan, flush,
// fence, and commit children, plus lazy cow spans when eager CoW is off.
func TestCheckpointSpansDefault(t *testing.T) {
	opts := smallOpts(ModeDefault)
	opts.EagerCoWSegments = -1 // exercise the lazy cow span
	_, c, rec := tracedContainer(t, opts)
	writeU64(c, 0, 1)
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	writeU64(c, 0, 2) // first write of the epoch: lazy CoW
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	got := spanNames(rec.Spans())
	for name, want := range map[string]int{
		"checkpoint": 2, "dirty-scan": 2, "flush": 2, "fence": 2, "commit": 2, "cow": 1,
	} {
		if got[name] != want {
			t.Errorf("%s spans: got %d, want %d (all: %v)", name, got[name], want, got)
		}
	}
	if got["eager-cow"] != 0 {
		t.Errorf("eager-cow span with eager CoW disabled: %v", got)
	}
	// Every span closed: depths consistent and no dangling stack means
	// parents strictly contain their children in completion order.
	for _, s := range rec.Spans() {
		if s.Name == "checkpoint" && s.Depth != 0 {
			t.Errorf("checkpoint span at depth %d", s.Depth)
		}
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts: %+v", s.Name, s)
		}
	}
}

// TestCheckpointSpansBuffered pins buffered mode's phases: copy, fence,
// commit inside the checkpoint span.
func TestCheckpointSpansBuffered(t *testing.T) {
	_, c, rec := tracedContainer(t, smallOpts(ModeBuffered))
	writeU64(c, 0, 1)
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	got := spanNames(rec.Spans())
	for _, name := range []string{"checkpoint", "copy", "fence", "commit"} {
		if got[name] != 1 {
			t.Errorf("%s spans: got %d, want 1 (all: %v)", name, got[name], got)
		}
	}
}

// TestRecoverySpans pins the recovery phases after a crash.
func TestRecoverySpans(t *testing.T) {
	opts := smallOpts(ModeDefault)
	dev, c := newTestContainer(t, opts)
	writeU64(c, 0, 11)
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	writeU64(c, 0, 22) // uncommitted
	dev.CrashDropAll()

	rec := obs.NewRecorder(dev.Clock())
	opts.Trace = rec
	c2, err := OpenContainer(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := readU64(c2, 0); got != 11 {
		t.Fatalf("recovered value %d, want 11", got)
	}
	got := spanNames(rec.Spans())
	if got["recovery"] != 1 || got["resync"] != 1 {
		t.Fatalf("recovery spans: %v", got)
	}
	if got["checkpoint"] != 0 {
		t.Fatalf("recovery emitted checkpoint spans: %v", got)
	}
}

// TestTracingLeavesSimulationUntouched pins the zero-interference property
// at the container level: the same workload with and without a recorder
// finishes at the same simulated time with the same device stats and the
// same heap bytes.
func TestTracingLeavesSimulationUntouched(t *testing.T) {
	for _, mode := range modes() {
		run := func(traced bool) (int64, nvm.Stats, byte) {
			opts := smallOpts(mode)
			l, err := region.NewLayout(opts.Region)
			if err != nil {
				t.Fatal(err)
			}
			dev := nvm.NewDevice(l.DeviceSize())
			if traced {
				opts.Trace = obs.NewRecorder(dev.Clock())
			}
			c, err := NewContainer(dev, opts)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				for off := 0; off < 8*4096; off += 4096 {
					writeU64(c, off, uint64(i*1000+off))
				}
				if err := c.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			return dev.Clock().NowPS(), dev.Stats(), c.Bytes()[0]
		}
		ps1, st1, b1 := run(false)
		ps2, st2, b2 := run(true)
		if ps1 != ps2 {
			t.Errorf("%v: tracing changed simulated time: %d vs %d", mode, ps1, ps2)
		}
		if st1 != st2 {
			t.Errorf("%v: tracing changed device stats:\n%v\n%v", mode, st1, st2)
		}
		if b1 != b2 {
			t.Errorf("%v: tracing changed heap content", mode)
		}
	}
}

// TestSetTraceAttaches pins the obs.Traceable hook used by the harness.
func TestSetTraceAttaches(t *testing.T) {
	dev, c := newTestContainer(t, smallOpts(ModeDefault))
	rec := obs.NewRecorder(dev.Clock())
	var tr obs.Traceable = c // compile-time: Container implements Traceable
	tr.SetTrace(rec)
	writeU64(c, 0, 1)
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if len(rec.Spans()) == 0 {
		t.Fatal("SetTrace-attached recorder saw no spans")
	}
}
