package nvm

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"
)

// TestSteadyStateZeroAllocs pins the steady-state device primitives at zero
// allocations per operation. The slot pool is part of the device's arena,
// so after a flush in the lower half a first flush in the upper half
// allocates nothing; after the warm-up pass the hot loop — stores, flushes,
// fences, NT stores, cache-only writes and crashes — must never touch the
// heap.
func TestSteadyStateZeroAllocs(t *testing.T) {
	const size = 1 << 20
	var buf [8]byte
	nt := make([]byte, 4096)
	for name, flush := range map[string]func(d *Device, off int){
		"CLWB": func(d *Device, off int) {
			d.Store(off, buf[:])
			d.CLWB(off)
			d.SFence()
		},
		"NTStore": func(d *Device, off int) {
			d.NTStore(off, nt)
			d.SFence()
		},
	} {
		d := NewDevice(size)
		flush(d, 0)
		if n := mallocs(func() { flush(d, size-len(nt)) }); n != 0 {
			t.Errorf("%s: first flush in the upper half allocated %d objects, want 0", name, n)
		}
	}

	d := NewDevice(size)
	// Warm up: dirty, flush, and fence the whole device once so every lazy
	// structure (the pending-run list) reaches its final size.
	for off := 0; off < size; off += LineSize {
		d.Store(off, buf[:])
	}
	d.FlushRange(0, size)
	d.SFence()
	d.NTStore(0, nt)
	d.SFence()

	// Two patterns that are not zero, so each NT store of the other one
	// changes every line and logs its media.
	ntPattern := [2][]byte{bytes.Repeat([]byte{1}, 4096), bytes.Repeat([]byte{2}, 4096)}
	ntFlip := 0
	// Two pending lines at opposite ends of the device, and a few hundred
	// lines flushed in descending order (one run each, sorted at the fence).
	span := func() { spanFence(d) }
	scattered := func() {
		for l := 299; l >= 0; l-- {
			d.Store(l*3*LineSize, buf[:])
			d.CLWB(l * 3 * LineSize)
		}
		d.SFence()
	}
	span()
	scattered()

	off := 0
	for name, fn := range map[string]func(){
		"SFenceSpan":      span,
		"SFenceScattered": scattered,
		"Store": func() {
			d.Store(off, buf[:])
			off = (off + LineSize) % size
		},
		"Load": func() { d.Load(128, buf[:]) },
		"CLWB": func() { d.CLWB(256) },
		"SFence": func() {
			d.SFence()
		},
		"FlushRange": func() { d.FlushRange(0, 4096) },
		"NTStore":    func() { d.NTStore(8192, nt) },
		"NTStoreChanged": func() {
			ntFlip = 1 - ntFlip
			d.NTStore(8192, ntPattern[ntFlip])
			d.SFence()
		},
		"StoreFlushFence": func() {
			d.Store(512, buf[:])
			d.CLWB(512)
			d.SFence()
		},
		"WriteCache": func() { d.WriteCache(1024, buf[:]) },
		"CrashWith": func() {
			d.Store(512, buf[:])
			d.CLWB(512)
			d.Store(2048, buf[:])
			d.WriteCache(4096, buf[:])
			d.CrashWith(DropAll)
		},
	} {
		if allocs := testing.AllocsPerRun(200, fn); allocs != 0 {
			t.Errorf("%s: %.2f allocs/op in steady state, want 0", name, allocs)
		}
	}
}

// mallocs counts the heap allocations of one call of fn. Unlike
// testing.AllocsPerRun it has no warm-up call, so it can measure a first.
func mallocs(fn func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// driveForCrash applies a fixed mixed store/flush/fence history so that at
// the end both dirty and pending lines exist.
func driveForCrash(seed int64) *Device {
	d := NewDevice(1 << 14)
	rng := rand.New(rand.NewSource(seed))
	line := make([]byte, LineSize)
	for i := 0; i < 800; i++ {
		off := rng.Intn(d.Size() - 8)
		d.Store(off, []byte{byte(i), byte(i >> 8)})
		switch i % 5 {
		case 0:
			d.CLWB(off)
		case 1:
			d.FlushRange((off/LineSize)*LineSize, LineSize)
		case 2:
			d.NTStore((off/LineSize)*LineSize, line)
		}
		if i%13 == 0 {
			d.SFence()
		}
	}
	return d
}

// TestCrashDeterministicForFixedSeed is the regression test for the map-order
// nondeterminism bug: two devices driven identically and crashed with the
// same seed must land on byte-identical media (the old map[int][]byte pending
// set made the persisted subset depend on Go map iteration order).
func TestCrashDeterministicForFixedSeed(t *testing.T) {
	for trial := int64(0); trial < 10; trial++ {
		d1, d2 := driveForCrash(trial), driveForCrash(trial)
		p1 := d1.Crash(rand.New(rand.NewSource(100 + trial)))
		p2 := d2.Crash(rand.New(rand.NewSource(100 + trial)))
		if p1 != p2 {
			t.Fatalf("trial %d: persisted-line counts differ: %d vs %d", trial, p1, p2)
		}
		if !bytes.Equal(d1.MediaSnapshot(), d2.MediaSnapshot()) {
			t.Fatalf("trial %d: post-crash media differs for identical histories and seed", trial)
		}
		if d1.Stats() != d2.Stats() {
			t.Fatalf("trial %d: post-crash stats differ: %+v vs %+v", trial, d1.Stats(), d2.Stats())
		}
	}
}

// TestFlushRangeMatchesCLWBLoop checks the batched flush against the
// primitive it replaces: same simulated clock, stats, and media for a mixed
// dirty/clean range.
func TestFlushRangeMatchesCLWBLoop(t *testing.T) {
	build := func() *Device {
		d := NewDevice(1 << 14)
		for l := 0; l < 64; l += 3 {
			d.Store(l*LineSize+7, []byte{byte(l)})
		}
		return d
	}
	a, b := build(), build()
	a.FlushRange(0, 64*LineSize)
	for l := 0; l < 64; l++ {
		b.CLWB(l * LineSize)
	}
	if a.Clock().NowPS() != b.Clock().NowPS() {
		t.Fatalf("clock diverged: batched %d ps, loop %d ps", a.Clock().NowPS(), b.Clock().NowPS())
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats diverged: %+v vs %+v", a.Stats(), b.Stats())
	}
	a.SFence()
	b.SFence()
	if a.Clock().NowPS() != b.Clock().NowPS() || a.Stats() != b.Stats() {
		t.Fatal("post-fence accounting diverged between batched and per-line flush")
	}
	if !bytes.Equal(a.MediaSnapshot(), b.MediaSnapshot()) {
		t.Fatal("media diverged between batched and per-line flush")
	}
}

// BenchmarkDeviceStoreFlushFence is the headline wall-clock number for this
// simulator: an 8-line store burst, one batched flush, one fence — the shape
// of a block flush inside the checkpoint protocols.
func BenchmarkDeviceStoreFlushFence(b *testing.B) {
	const size = 1 << 20
	const span = 8 * LineSize
	d := NewDevice(size)
	var buf [8]byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		off := (i * span) & (size - span)
		for l := 0; l < 8; l++ {
			d.Store(off+l*LineSize, buf[:])
		}
		d.FlushRange(off, span)
		d.SFence()
	}
}

// spanFence stores to, flushes and fences the first and last lines of d:
// two pending lines as far apart as the device allows.
func spanFence(d *Device) {
	var buf [8]byte
	far := d.Size() - LineSize
	d.Store(0, buf[:])
	d.Store(far, buf[:])
	d.CLWB(0)
	d.CLWB(far)
	d.SFence()
}

// BenchmarkSFenceSpan is a fence draining two lines at opposite ends of a
// 64 MiB device — InCLL's data line and its far-away side log. Its cost is
// the two lines, not the 64 MiB between them.
func BenchmarkSFenceSpan(b *testing.B) {
	d := NewDevice(64 << 20)
	spanFence(d) // gives the pool its slots
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spanFence(d)
	}
}

// BenchmarkNTStore4K tracks the non-temporal bulk-copy path used by
// segment CoW and recovery resync, for a copy that changes nothing: zero
// pages onto zero lines cost one compare a stride and copy no byte.
func BenchmarkNTStore4K(b *testing.B) {
	const size = 1 << 20
	d := NewDevice(size)
	src := make([]byte, 4096)
	b.SetBytes(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		off := (i * 4096) & (size - 4096)
		d.NTStore(off, src)
		d.SFence()
	}
}

// BenchmarkNTStore4KChanged is BenchmarkNTStore4K with every line changed:
// two patterns that are not zero take turns, a pass over the device each,
// so after the first pass each store compares, logs every line's media and
// copies the page.
func BenchmarkNTStore4KChanged(b *testing.B) {
	const size = 1 << 20
	d := NewDevice(size)
	src := [2][]byte{bytes.Repeat([]byte{1}, 4096), bytes.Repeat([]byte{2}, 4096)}
	b.SetBytes(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		off := (i * 4096) & (size - 4096)
		d.NTStore(off, src[i*4096/size%2])
		d.SFence()
	}
}
