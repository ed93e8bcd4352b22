package core

import (
	"math/rand"
	"testing"

	"libcrpm/internal/nvm"
	"libcrpm/internal/region"
)

func benchContainer(b *testing.B, mode Mode) (*nvm.Device, *Container) {
	b.Helper()
	opts := Options{
		Region: region.Config{HeapSize: 8 << 20, SegmentSize: 256 << 10, BlockSize: 256, BackupRatio: 1},
		Mode:   mode,
	}
	l, err := region.NewLayout(opts.Region)
	if err != nil {
		b.Fatal(err)
	}
	dev := nvm.NewDevice(l.DeviceSize())
	b.Cleanup(dev.Close)
	c, err := NewContainer(dev, opts)
	if err != nil {
		b.Fatal(err)
	}
	return dev, c
}

// BenchmarkInstrumentedWrite measures the per-store hook + write path in the
// steady state (segment already copied, block already dirty).
func BenchmarkInstrumentedWrite(b *testing.B) {
	for _, mode := range []Mode{ModeDefault, ModeBuffered} {
		b.Run(mode.String(), func(b *testing.B) {
			_, c := benchContainer(b, mode)
			var buf [8]byte
			c.OnWrite(0, 8)
			c.Write(0, buf[:])
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.OnWrite(0, 8)
				c.Write(0, buf[:])
			}
		})
	}
}

// BenchmarkOnWriteMemo isolates the OnWrite hook itself on three store
// patterns: same-block (the last-hit memo elides the bitmap work entirely),
// alternating between two blocks (every call misses the memo and pays the
// already-dirty bitmap test), and a sequential byte walk (runs of hits
// punctuated by one miss per block boundary).
func BenchmarkOnWriteMemo(b *testing.B) {
	for _, mode := range []Mode{ModeDefault, ModeBuffered} {
		blk := 256
		patterns := []struct {
			name string
			off  func(i int) int
		}{
			{"same-block", func(int) int { return 0 }},
			{"alternating", func(i int) int { return (i % 2) * blk }},
			{"sequential", func(i int) int { return (i * 8) % (4 * blk) }},
		}
		for _, p := range patterns {
			b.Run(mode.String()+"/"+p.name, func(b *testing.B) {
				_, c := benchContainer(b, mode)
				// Warm every block the pattern touches so only the
				// steady-state hook is measured.
				for off := 0; off < 4*blk; off += blk {
					c.OnWrite(off, 8)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.OnWrite(p.off(i), 8)
				}
			})
		}
	}
}

// BenchmarkFirstTouchCoW measures the cold path: the first write to a clean
// committed segment, which triggers segment-level copy-on-write.
func BenchmarkFirstTouchCoW(b *testing.B) {
	_, c := benchContainer(b, ModeDefault)
	var buf [8]byte
	nSegs := c.Layout().NMain
	// Commit every segment once so CoW has checkpoint state to protect.
	for s := 0; s < nSegs; s++ {
		c.OnWrite(s*c.Layout().SegSize, 8)
		c.Write(s*c.Layout().SegSize, buf[:])
	}
	if err := c.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%nSegs == 0 {
			b.StopTimer()
			if err := c.Checkpoint(); err != nil { // reset dirty state
				b.Fatal(err)
			}
			b.StartTimer()
		}
		s := i % nSegs
		c.OnWrite(s*c.Layout().SegSize+64, 8)
		c.Write(s*c.Layout().SegSize+64, buf[:])
	}
}

// BenchmarkCheckpointDefault measures the checkpoint period itself with a
// realistic dirty set.
func BenchmarkCheckpointDefault(b *testing.B) {
	for _, mode := range []Mode{ModeDefault, ModeBuffered} {
		b.Run(mode.String(), func(b *testing.B) {
			_, c := benchContainer(b, mode)
			rng := rand.New(rand.NewSource(1))
			var buf [8]byte
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for j := 0; j < 500; j++ {
					off := rng.Intn(c.Size()/8-1) * 8
					c.OnWrite(off, 8)
					c.Write(off, buf[:])
				}
				b.StartTimer()
				if err := c.Checkpoint(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRecover measures the recovery protocol over a container with
// committed state in every segment.
func BenchmarkRecover(b *testing.B) {
	dev, c := benchContainer(b, ModeDefault)
	var buf [8]byte
	for s := 0; s < c.Layout().NMain; s++ {
		c.OnWrite(s*c.Layout().SegSize, 8)
		c.Write(s*c.Layout().SegSize, buf[:])
	}
	if err := c.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	dev.CrashPersistAll()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Recover(); err != nil {
			b.Fatal(err)
		}
	}
}
