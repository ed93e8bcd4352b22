package heap_test

import (
	"testing"

	"libcrpm/internal/alloc"
	"libcrpm/internal/ckpt"
	"libcrpm/internal/core"
	"libcrpm/internal/heap"
	"libcrpm/internal/incll"
	"libcrpm/internal/nvm"
	"libcrpm/internal/pds"
	"libcrpm/internal/region"
)

// TestPutDoesNotAllocate guards the fixed-width stores' staging buffer: an
// update Put — a handful of heap word writes through the Backend interface
// — must not allocate on any checkpoint backend. (It used to cost one
// 8-byte heap object per word written.)
func TestPutDoesNotAllocate(t *testing.T) {
	const heapSize = 1 << 20
	reg := region.Config{HeapSize: heapSize, BackupRatio: 1}
	coreBackend := func(mode core.Mode, concurrent bool) func(t *testing.T) ckpt.Backend {
		return func(t *testing.T) ckpt.Backend {
			l, err := region.NewLayout(reg)
			if err != nil {
				t.Fatal(err)
			}
			c, err := core.NewContainer(nvm.NewDevice(l.DeviceSize()), core.Options{Region: reg, Mode: mode, Concurrent: concurrent})
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
	}
	backends := []struct {
		name string
		make func(t *testing.T) ckpt.Backend
	}{
		{"core-default", coreBackend(core.ModeDefault, false)},
		{"core-buffered", coreBackend(core.ModeBuffered, false)},
		{"core-concurrent", coreBackend(core.ModeDefault, true)},
		{"incll", func(t *testing.T) ckpt.Backend {
			size, err := incll.DeviceSize(heapSize)
			if err != nil {
				t.Fatal(err)
			}
			b, err := incll.Format(heapSize, nvm.NewDevice(size))
			if err != nil {
				t.Fatal(err)
			}
			return b
		}},
	}
	for _, bk := range backends {
		t.Run(bk.name, func(t *testing.T) {
			b := bk.make(t)
			a, err := alloc.Format(heap.New(b))
			if err != nil {
				t.Fatal(err)
			}
			m, err := pds.NewHashMap(a, 64)
			if err != nil {
				t.Fatal(err)
			}
			for k := uint64(0); k < 32; k++ {
				if err := m.Put(k, k); err != nil {
					t.Fatal(err)
				}
			}
			if err := b.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			v := uint64(100)
			if n := testing.AllocsPerRun(200, func() {
				v++
				if err := m.Put(v%32, v); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Fatalf("update Put allocates %.1f objects per call, want 0", n)
			}
		})
	}
}
