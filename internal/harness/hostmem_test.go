//go:build unix && !race

package harness

import (
	"runtime"
	"testing"

	"libcrpm/internal/ckpt"
)

// TestBackendsAllocateNoHeapSizedImage pins where a backend's heap-sized
// memory lives: its device's arena and DRAM (nvm.Device.DRAM), both mapped
// off the Go heap. Building any Figure 7 backend, InCLL or FTI at the small
// scale's heap size must add under 1 MiB to the bytes the Go heap ever
// allocated, where a heap-sized working buffer, mirror or FTI buffer adds
// the whole 16 MiB. The count is exact, so the check is free of noise.
// Dalí has no backend: its persistence is inside the structure.
func TestBackendsAllocateNoHeapSizedImage(t *testing.T) {
	heapSize := SmallScale().HeapSize
	systems := append(DSSystems(DSRBMap), "InCLL", "FTI")
	for _, system := range systems {
		var b ckpt.Backend
		alloc := totalAlloc(func() {
			var err error
			if b, err = newBackend(system, heapSize, Geometry{}); err != nil {
				t.Fatalf("%s: %v", system, err)
			}
		})
		b.Device().Close()
		if alloc >= 1<<20 {
			t.Errorf("%s: building the backend over %d heap bytes allocated %d KiB on the Go heap, want under 1 MiB", system, heapSize, alloc>>10)
		}
	}
}

// totalAlloc returns the bytes fn allocated on the Go heap.
func totalAlloc(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
