package heap

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"libcrpm/internal/baselines/nvmnp"
)

func TestTypedRoundTrips(t *testing.T) {
	h := New(nvmnp.New(4096))
	h.WriteU8(0, 0xab)
	if got := h.ReadU8(0); got != 0xab {
		t.Fatalf("u8 = %#x", got)
	}
	h.WriteU32(4, 0xdeadbeef)
	if got := h.ReadU32(4); got != 0xdeadbeef {
		t.Fatalf("u32 = %#x", got)
	}
	h.WriteU64(8, 0x1122334455667788)
	if got := h.ReadU64(8); got != 0x1122334455667788 {
		t.Fatalf("u64 = %#x", got)
	}
	h.WriteF64(16, math.Pi)
	if got := h.ReadF64(16); got != math.Pi {
		t.Fatalf("f64 = %v", got)
	}
	h.WriteF64(24, math.Inf(-1))
	if got := h.ReadF64(24); !math.IsInf(got, -1) {
		t.Fatalf("f64 inf = %v", got)
	}
}

func TestBytesAndZero(t *testing.T) {
	h := New(nvmnp.New(4096))
	src := []byte{1, 2, 3, 4, 5}
	h.WriteBytes(100, src)
	if !bytes.Equal(h.ReadBytes(100, 5), src) {
		t.Fatal("bytes round trip failed")
	}
	h.Zero(100, 5)
	if !bytes.Equal(h.ReadBytes(100, 5), make([]byte, 5)) {
		t.Fatal("Zero did not clear")
	}
	// The zero buffer grows once, in the warm-up call, and is shared after.
	if n := testing.AllocsPerRun(10, func() { h.Zero(0, 4096) }); n != 0 {
		t.Fatalf("Zero allocates %.1f objects per call, want 0", n)
	}
}

func TestLittleEndianLayout(t *testing.T) {
	h := New(nvmnp.New(4096))
	h.WriteU64(0, 0x0102030405060708)
	want := []byte{8, 7, 6, 5, 4, 3, 2, 1}
	if !bytes.Equal(h.ReadBytes(0, 8), want) {
		t.Fatalf("layout = %v, want %v", h.ReadBytes(0, 8), want)
	}
}

func TestSizeAndBackend(t *testing.T) {
	b := nvmnp.New(8192)
	h := New(b)
	if h.Size() != 8192 {
		t.Fatalf("Size = %d", h.Size())
	}
	if h.Backend() != b {
		t.Fatal("Backend accessor wrong")
	}
}

func TestChargesCosts(t *testing.T) {
	b := nvmnp.New(4096)
	h := New(b)
	before := b.Device().Clock().NowPS()
	h.WriteU64(0, 1)
	h.ReadU64(0)
	if b.Device().Clock().NowPS() <= before {
		t.Fatal("accessors advanced no simulated time")
	}
}

// TestZerosSharedAcrossGoroutines has heaps on several goroutines take zero
// buffers of growing lengths at once: each gets its length, all zero.
func TestZerosSharedAcrossGoroutines(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := g + 1; n < 1<<14; n = n*3 + g {
				z := zeros(n)
				if len(z) != n || !bytes.Equal(z, make([]byte, n)) {
					t.Errorf("zeros(%d) gave %d bytes, or bytes that are not zero", n, len(z))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
