// Micro-benchmarks of the public API's hot paths and of every backend's
// write hook (run `go test -bench=. -benchmem`). The paper's tables and
// figures are pinned by the harness goldens and results/small.csv, and
// regenerated by crpmbench, not here.
package crpm

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"libcrpm/internal/harness"
	"libcrpm/internal/workload"
)

func newBenchStore(b *testing.B, mode Mode) (*Store, *HashMap) {
	b.Helper()
	st, err := CreateStore(Options{HeapSize: 16 << 20, Mode: mode})
	if err != nil {
		b.Fatal(err)
	}
	m, err := st.NewHashMap(1 << 15)
	if err != nil {
		b.Fatal(err)
	}
	return st, m
}

func BenchmarkHashMapPutDefault(b *testing.B) {
	_, m := newBenchStore(b, ModeDefault)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := m.Put(uint64(i)%50_000, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHashMapPutBuffered(b *testing.B) {
	_, m := newBenchStore(b, ModeBuffered)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := m.Put(uint64(i)%50_000, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHashMapGet(b *testing.B) {
	_, m := newBenchStore(b, ModeDefault)
	for k := uint64(0); k < 50_000; k++ {
		if err := m.Put(k, k); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Get(uint64(i) % 50_000)
	}
}

func BenchmarkRBMapPut(b *testing.B) {
	st, err := CreateStore(Options{HeapSize: 32 << 20})
	if err != nil {
		b.Fatal(err)
	}
	m, err := st.NewRBMap()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := m.Put(uint64(i)%100_000, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCheckpointLatency(b *testing.B) {
	st, m := newBenchStore(b, ModeDefault)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < 200; j++ {
			if err := m.Put(uint64(rng.Intn(50_000)), rng.Uint64()); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if err := st.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRecoveryLatency(b *testing.B) {
	opts := Options{HeapSize: 16 << 20}
	st, m := newBenchStore(b, ModeDefault)
	st.SetRoot(0, uint64(m.Root()))
	for k := uint64(0); k < 50_000; k++ {
		if err := m.Put(k, k); err != nil {
			b.Fatal(err)
		}
	}
	if err := st.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < 100; j++ {
			if err := m.Put(uint64(rng.Intn(50_000)), 1); err != nil {
				b.Fatal(err)
			}
		}
		st.Device().Crash(rng)
		b.StartTimer()
		st2, err := OpenStore(st.Device(), opts)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		m, err = st2.OpenHashMap(int(st2.Root(0)))
		if err != nil {
			b.Fatal(err)
		}
		st = st2
		b.StartTimer()
	}
}

// BenchmarkEndToEndWorkload runs the paper's balanced epoch loop on the
// public API, reporting simulated throughput alongside wall time.
func BenchmarkEndToEndWorkload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		st, m := newBenchStore(b, ModeDefault)
		d := &workload.Driver{
			KV:         m,
			Clock:      st.Device().Clock(),
			Checkpoint: st.Checkpoint,
			Interval:   2 * time.Millisecond,
			Zipf:       workload.NewZipfian(30_000, 0.99),
			Rng:        rand.New(rand.NewSource(3)),
		}
		if err := d.Populate(30_000); err != nil {
			b.Fatal(err)
		}
		res, err := d.Run(workload.Balanced, 30_000)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Throughput/1e6, "sim-Mops")
		}
	}
}

// BenchmarkOnWriteBackends measures the real (wall-clock) cost of the
// OnWrite hot path of every backend at every crossover write size: one
// traced, size-aligned write per iteration over a uniform offset stream,
// with a checkpoint every 512 writes to keep epochs realistic. The
// simulated per-op cost of the same matrix is the harness OnWriteMicro
// table (crpmbench -exp crossover).
func BenchmarkOnWriteBackends(b *testing.B) {
	const heapSize = 1 << 20
	for _, sys := range harness.OnWriteSystems() {
		for _, size := range harness.OnWriteSizes() {
			b.Run(fmt.Sprintf("%s/%dB", sys, size), func(b *testing.B) {
				bk, err := harness.NewArenaBackend(sys, heapSize)
				if err != nil {
					b.Fatal(err)
				}
				nSlots := heapSize / size
				rng := rand.New(rand.NewSource(42))
				buf := make([]byte, size)
				rng.Read(buf)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					off := rng.Intn(nSlots) * size
					bk.OnWrite(off, size)
					bk.Write(off, buf)
					if i%512 == 511 {
						if err := bk.Checkpoint(); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	}
}
