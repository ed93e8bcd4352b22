package workload

import (
	"math/rand"
	"testing"
	"time"

	"libcrpm/internal/obs"
)

// tracedDriver builds a driver over a fresh nvmnp-backed hash map, with or
// without a recorder attached.
func tracedDriver(t *testing.T, traced bool) (*Driver, *obs.Recorder) {
	t.Helper()
	kv, b := newKV(t)
	d := &Driver{
		KV:         kv,
		Clock:      b.Device().Clock(),
		Checkpoint: b.Checkpoint,
		Interval:   100 * time.Microsecond,
		Rng:        rand.New(rand.NewSource(11)),
		Zipf:       NewZipfian(1000, 0.99),
	}
	var rec *obs.Recorder
	if traced {
		rec = obs.NewRecorder(b.Device().Clock())
		d.Trace = rec
	}
	return d, rec
}

// TestDriverEpochSpans pins the driver-level tracing contract: one epoch
// span and one ckpt-pause span per epoch, all balanced.
func TestDriverEpochSpans(t *testing.T) {
	d, rec := tracedDriver(t, true)
	if err := d.Populate(1000); err != nil {
		t.Fatal(err)
	}
	res, err := d.Run(Balanced, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs < 2 {
		t.Fatalf("run too short to be meaningful: %+v", res)
	}

	counts := map[string]int{}
	for _, s := range rec.Spans() {
		counts[s.Name]++
		if s.Name == "ckpt-pause" && s.Depth != 1 {
			t.Errorf("ckpt-pause at depth %d, want 1 (inside epoch)", s.Depth)
		}
	}
	if counts["epoch"] != res.Epochs || counts["ckpt-pause"] != res.Epochs {
		t.Fatalf("spans %v, want %d epoch and ckpt-pause each", counts, res.Epochs)
	}
}

// TestDriverTraceDoesNotChangeResults pins that attaching a recorder leaves
// the run's simulated results untouched.
func TestDriverTraceDoesNotChangeResults(t *testing.T) {
	run := func(traced bool) Result {
		d, _ := tracedDriver(t, traced)
		if err := d.Populate(1000); err != nil {
			t.Fatal(err)
		}
		res, err := d.Run(Balanced, 5000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if a, b := run(false), run(true); a != b {
		t.Fatalf("tracing changed the run result:\n%+v\n%+v", a, b)
	}
}
