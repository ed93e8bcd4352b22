package nvm

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestStoreIsVolatileUntilFenced(t *testing.T) {
	d := NewDevice(4096)
	d.Store(100, []byte{1, 2, 3, 4})
	if got := d.MediaSnapshot()[100]; got != 0 {
		t.Fatalf("unflushed store reached media: %d", got)
	}
	d.CrashDropAll()
	if got := d.Working()[100]; got != 0 {
		t.Fatalf("crash-drop kept volatile store: %d", got)
	}
}

func TestCLWBAloneIsNotDurable(t *testing.T) {
	d := NewDevice(4096)
	d.Store(0, []byte{42})
	d.CLWB(0)
	// CLWB without SFence: a crash may still drop the line.
	d.CrashDropAll()
	if got := d.Working()[0]; got != 0 {
		t.Fatalf("clwb without fence survived crash-drop: %d", got)
	}
}

func TestCLWBPlusSFenceIsDurable(t *testing.T) {
	d := NewDevice(4096)
	d.Store(0, []byte{42})
	d.CLWB(0)
	d.SFence()
	d.CrashDropAll()
	if got := d.Working()[0]; got != 42 {
		t.Fatalf("fenced store lost at crash: %d", got)
	}
	rng := rand.New(rand.NewSource(7))
	d2 := NewDevice(4096)
	d2.Store(0, []byte{42})
	d2.FlushRange(0, 1)
	d2.SFence()
	d2.Crash(rng)
	if got := d2.Working()[0]; got != 42 {
		t.Fatalf("fenced store lost at randomized crash: %d", got)
	}
}

func TestNTStoreDurableAfterFence(t *testing.T) {
	d := NewDevice(4096)
	buf := make([]byte, 256)
	for i := range buf {
		buf[i] = byte(i)
	}
	d.NTStore(512, buf)
	d.SFence()
	d.CrashDropAll()
	if !bytes.Equal(d.Working()[512:768], buf) {
		t.Fatal("fenced NT store lost at crash")
	}
}

func TestNTStoreBeforeFenceMayBeDropped(t *testing.T) {
	d := NewDevice(4096)
	d.NTStore(0, []byte{9, 9, 9, 9})
	d.CrashDropAll()
	if d.Working()[0] != 0 {
		t.Fatal("unfenced NT store survived crash-drop")
	}
}

func TestNTStoreClearsFullyCoveredDirtyLines(t *testing.T) {
	d := NewDevice(4096)
	d.Store(64, []byte{1}) // line 1 dirty
	buf := make([]byte, LineSize)
	d.NTStore(64, buf) // fully covers line 1
	if d.DirtyLineCount() != 0 {
		t.Fatalf("NT store over dirty line left %d dirty lines", d.DirtyLineCount())
	}
}

func TestNTStorePartialCoverKeepsDirty(t *testing.T) {
	d := NewDevice(4096)
	d.Store(64, []byte{1})
	d.NTStore(96, make([]byte, 16)) // partial cover of line 1
	if d.DirtyLineCount() != 1 {
		t.Fatalf("partially covered dirty line cleared: %d dirty", d.DirtyLineCount())
	}
}

// TestNTStoreLogsOnlyMediaThatIsNotZero pins where a 2 MiB NT store's undo
// goes. Zeros onto zero lines take no log slot, and neither do bytes onto
// zero media, whose undo is the zero slot; bytes onto media that is not
// zero take one log slot a line. Every line joins the pending set
// whichever undo it took.
func TestNTStoreLogsOnlyMediaThatIsNotZero(t *testing.T) {
	const n = 2 << 20
	d := NewDevice(n)
	defer d.Close()
	data, other := make([]byte, n), make([]byte, n)
	for i := range data {
		data[i] = byte(i%251 + 1)
		other[i] = data[i] ^ 0x80
	}
	for _, c := range []struct {
		name string
		src  []byte
		log  int
	}{
		{"zeros onto zeros", make([]byte, n), 0},
		{"bytes onto zero media", data, 0},
		{"bytes onto bytes", other, n / LineSize},
	} {
		d.NTStore(0, c.src)
		if got := d.LogLines(); got != c.log {
			t.Errorf("%s: the log holds %d lines, want %d", c.name, got, c.log)
		}
		if got := d.PendingLineCount(); got != n/LineSize {
			t.Errorf("%s: %d lines pending, want %d", c.name, got, n/LineSize)
		}
		d.SFence()
		if !bytes.Equal(d.MediaSnapshot(), c.src) {
			t.Fatalf("%s: the fenced media is not the stored bytes", c.name)
		}
	}
}

func TestWBINVDFlushesEverything(t *testing.T) {
	d := NewDevice(1 << 16)
	for i := 0; i < 100; i++ {
		d.Store(i*LineSize, []byte{byte(i + 1)})
	}
	d.WBINVD()
	if d.DirtyLineCount() != 0 {
		t.Fatalf("wbinvd left %d dirty lines", d.DirtyLineCount())
	}
	d.CrashDropAll()
	for i := 0; i < 100; i++ {
		if d.Working()[i*LineSize] != byte(i+1) {
			t.Fatalf("line %d lost after wbinvd", i)
		}
	}
}

func TestCrashUndoRestoresPreFlushMedia(t *testing.T) {
	// Write+fence value A. Write value B, CLWB (no fence), crash-drop: media
	// must hold A, not B and not zero.
	d := NewDevice(4096)
	d.Store(0, []byte{0xAA})
	d.FlushRange(0, 1)
	d.SFence()
	d.Store(0, []byte{0xBB})
	d.CLWB(0)
	d.CrashDropAll()
	if got := d.Working()[0]; got != 0xAA {
		t.Fatalf("crash-drop after clwb gave %#x, want last fenced value 0xAA", got)
	}
}

func TestCrashPersistAllKeepsNewest(t *testing.T) {
	d := NewDevice(4096)
	d.Store(0, []byte{0xAA})
	d.FlushRange(0, 1)
	d.SFence()
	d.Store(0, []byte{0xBB})
	d.CrashPersistAll()
	if got := d.Working()[0]; got != 0xBB {
		t.Fatalf("crash-persist-all gave %#x, want 0xBB", got)
	}
}

func TestRandomCrashGivesOldOrNewPerLine(t *testing.T) {
	// Each unfenced line independently holds either the fenced value or the
	// new value, never anything else.
	for seed := int64(0); seed < 20; seed++ {
		d := NewDevice(1 << 14)
		for l := 0; l < 32; l++ {
			d.Store(l*LineSize, []byte{0x11})
		}
		d.FlushRange(0, 32*LineSize)
		d.SFence()
		for l := 0; l < 32; l++ {
			d.Store(l*LineSize, []byte{0x22})
		}
		d.FlushRange(0, 16*LineSize) // half clwb'd, no fence
		d.Crash(rand.New(rand.NewSource(seed)))
		for l := 0; l < 32; l++ {
			got := d.Working()[l*LineSize]
			if got != 0x11 && got != 0x22 {
				t.Fatalf("seed %d line %d: impossible value %#x", seed, l, got)
			}
		}
	}
}

func TestMediaWriteGranularity(t *testing.T) {
	d := NewDevice(4096)
	before := d.Stats().MediaWriteBytes
	d.Store(0, []byte{1}) // one byte
	d.CLWB(0)
	d.SFence()
	if got := d.Stats().MediaWriteBytes - before; got != MediaGranularity {
		t.Fatalf("one-line flush wrote %d media bytes, want %d", got, MediaGranularity)
	}
	// Four adjacent lines in one fence epoch coalesce into one 256B chunk.
	before = d.Stats().MediaWriteBytes
	for l := 4; l < 8; l++ {
		d.Store(l*LineSize, []byte{1})
	}
	d.FlushRange(4*LineSize, 4*LineSize)
	d.SFence()
	if got := d.Stats().MediaWriteBytes - before; got != MediaGranularity {
		t.Fatalf("coalesced flush wrote %d media bytes, want %d", got, MediaGranularity)
	}
	// The same lines flushed in separate fence epochs cost a chunk each.
	before = d.Stats().MediaWriteBytes
	for l := 4; l < 8; l++ {
		d.Store(l*LineSize, []byte{2})
		d.CLWB(l * LineSize)
		d.SFence()
	}
	if got := d.Stats().MediaWriteBytes - before; got != 4*MediaGranularity {
		t.Fatalf("separate flushes wrote %d media bytes, want %d", got, 4*MediaGranularity)
	}
}

func TestStatsCounters(t *testing.T) {
	d := NewDevice(4096)
	d.Store(0, []byte{1})
	d.Load(0, make([]byte, 1))
	d.CLWB(0)
	d.SFence()
	d.WBINVD()
	d.ChargePageFault()
	s := d.Stats()
	if s.Stores != 1 || s.Loads != 1 || s.CLWBs != 1 || s.SFences != 1 || s.WBINVDs != 1 || s.PageFaults != 1 {
		t.Fatalf("counters wrong: %v", s)
	}
	delta := s.Sub(Stats{Stores: 1})
	if delta.Stores != 0 || delta.Loads != 1 {
		t.Fatalf("Sub wrong: %v", delta)
	}
}

func TestClockAdvancesByCategory(t *testing.T) {
	d := NewDevice(4096)
	c := d.Clock()
	d.Store(0, []byte{1})
	execPS := c.CategoryPS(CatExecution)
	if execPS <= 0 {
		t.Fatal("store did not advance execution time")
	}
	prev := c.SetCategory(CatCheckpoint)
	if prev != CatExecution {
		t.Fatalf("SetCategory returned %v, want execution", prev)
	}
	d.CLWB(0)
	d.SFence()
	if c.CategoryPS(CatCheckpoint) <= 0 {
		t.Fatal("fence did not advance checkpoint time")
	}
	if c.CategoryPS(CatExecution) != execPS {
		t.Fatal("checkpoint time leaked into execution category")
	}
	if c.NowPS() != c.CategoryPS(CatExecution)+c.CategoryPS(CatCheckpoint) {
		t.Fatal("total time is not the sum of categories")
	}
}

func TestClockReset(t *testing.T) {
	c := NewClock()
	c.Advance(12345)
	c.SetCategory(CatTrace)
	c.Advance(1)
	c.Reset()
	if c.NowPS() != 0 || c.Category() != CatExecution || c.CategoryPS(CatTrace) != 0 {
		t.Fatalf("reset incomplete: %s", c)
	}
}

func TestEvictionFuzzPersistsSomeStores(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := NewDevice(1<<16, WithEvictionFuzz(0.5, rng))
	for i := 0; i < 200; i++ {
		d.Store(i*LineSize, []byte{byte(i + 1)})
	}
	if d.Stats().EvictedLines == 0 {
		t.Fatal("eviction fuzz at p=0.5 evicted nothing over 200 stores")
	}
	// Evicted lines are durable even without any flush.
	d.CrashDropAll()
	survived := 0
	for i := 0; i < 200; i++ {
		if d.Working()[i*LineSize] == byte(i+1) {
			survived++
		}
	}
	if survived == 0 {
		t.Fatal("no evicted line survived crash-drop")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	d := NewDevice(128)
	for name, fn := range map[string]func(){
		"store": func() { d.Store(120, make([]byte, 16)) },
		"load":  func() { d.Load(-1, make([]byte, 1)) },
		"nt":    func() { d.NTStore(0, make([]byte, 256)) },
		"clwb":  func() { d.CLWB(128) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s out of range did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestWorkingAlwaysObservesLatestStore(t *testing.T) {
	f := func(vals []uint64) bool {
		d := NewDevice(1 << 12)
		var buf [8]byte
		for i, v := range vals {
			off := (i * 8) % (1<<12 - 8)
			binary.LittleEndian.PutUint64(buf[:], v)
			d.Store(off, buf[:])
			var rd [8]byte
			d.Load(off, rd[:])
			if binary.LittleEndian.Uint64(rd[:]) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestCrashMediaEqualsSomeLinewiseMix verifies the core crash property: after
// a randomized crash, every cache line of media equals either its pre-crash
// media content or its pre-crash working content.
func TestCrashMediaEqualsSomeLinewiseMix(t *testing.T) {
	f := func(seed int64, writes []uint16) bool {
		d := NewDevice(1 << 12)
		rng := rand.New(rand.NewSource(seed))
		for i, w := range writes {
			off := int(w) % (1<<12 - 8)
			d.Store(off, []byte{byte(i), byte(i >> 8)})
			if i%3 == 0 {
				d.CLWB(off)
			}
			if i%7 == 0 {
				d.SFence()
			}
		}
		// Quiesce: after this fence everything written so far is durable, so
		// the media snapshot is the exact last-fenced state.
		d.FlushRange(0, d.Size())
		d.SFence()
		preMedia := d.MediaSnapshot()
		// Phase 2: unfenced stores, some clwb'd. Each line may land as the
		// fenced state, any intermediate content it held when a CLWB was
		// issued, or the newest store — never anything else.
		lineOf := func(off int) int { return off / LineSize }
		candidates := map[int][][]byte{}
		snap := func(l int) {
			line := make([]byte, LineSize)
			copy(line, d.Working()[l*LineSize:(l+1)*LineSize])
			candidates[l] = append(candidates[l], line)
		}
		for i, w := range writes {
			off := int(w) % (1<<12 - 8)
			d.Store(off, []byte{byte(i + 100), byte(i >> 4)})
			if i%2 == 0 {
				d.CLWB(off)
				snap(lineOf(off))
				if off%LineSize+2 > LineSize {
					snap(lineOf(off) + 1)
				}
			}
		}
		preWork := make([]byte, d.Size())
		copy(preWork, d.Working())
		d.Crash(rng)
		post := d.MediaSnapshot()
		for l := 0; l < d.Size()/LineSize; l++ {
			a, b := l*LineSize, (l+1)*LineSize
			if bytes.Equal(post[a:b], preMedia[a:b]) || bytes.Equal(post[a:b], preWork[a:b]) {
				continue
			}
			ok := false
			for _, c := range candidates[l] {
				if bytes.Equal(post[a:b], c) {
					ok = true
					break
				}
			}
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkStore8(b *testing.B) {
	d := NewDevice(1 << 20)
	var buf [8]byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Store((i*64)&(1<<20-64), buf[:])
	}
}

func BenchmarkFlushFence(b *testing.B) {
	d := NewDevice(1 << 20)
	var buf [8]byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		off := (i * 64) & (1<<20 - 64)
		d.Store(off, buf[:])
		d.CLWB(off)
		d.SFence()
	}
}

// TestWordRule pins the one place an access's size picks its price: at
// WordSize and one byte above it, each helper costs exactly what the branch it
// replaced at its callers cost — same clock, same counters, same number of
// crash-injectable primitives, same bytes in the cache.
func TestWordRule(t *testing.T) {
	src := make([]byte, WordSize+1)
	for i := range src {
		src[i] = byte(i + 1)
	}
	rules := []struct {
		name         string
		helper       func(d *Device, n int)
		word, longer func(d *Device, n int)
	}{
		{"Write",
			func(d *Device, n int) { d.Write(64, src[:n]) },
			func(d *Device, n int) { d.Store(64, src[:n]) },
			func(d *Device, n int) { d.StoreBulk(64, src[:n]) }},
		{"ChargeRead",
			func(d *Device, n int) { d.ChargeRead(n) },
			func(d *Device, n int) { d.ChargeNVMLoad() },
			func(d *Device, n int) { d.ChargeNVMRead(n) }},
		{"ChargeDRAMRead",
			func(d *Device, n int) { d.ChargeDRAMRead(n) },
			func(d *Device, n int) { d.ChargeLoad() },
			func(d *Device, n int) { d.ChargeDRAMCopy(n) }},
		{"ChargeDRAMWrite",
			func(d *Device, n int) { d.ChargeDRAMWrite(n) },
			func(d *Device, n int) { d.Clock().Advance(d.Cost().StorePS) },
			func(d *Device, n int) { d.ChargeDRAMCopy(n) }},
	}
	for _, r := range rules {
		for _, n := range []int{WordSize, WordSize + 1} {
			want := r.word
			if n > WordSize {
				want = r.longer
			}
			got, ref := NewDevice(4096), NewDevice(4096)
			r.helper(got, n)
			want(ref, n)
			if got.Clock().NowPS() != ref.Clock().NowPS() || got.Clock().NowPS() == 0 {
				t.Errorf("%s(%d): clock %d ps, want %d (non-zero)", r.name, n, got.Clock().NowPS(), ref.Clock().NowPS())
			}
			if got.Stats() != ref.Stats() {
				t.Errorf("%s(%d): stats %+v, want %+v", r.name, n, got.Stats(), ref.Stats())
			}
			if got.PrimitiveCount() != ref.PrimitiveCount() {
				t.Errorf("%s(%d): %d primitives, want %d", r.name, n, got.PrimitiveCount(), ref.PrimitiveCount())
			}
			if !bytes.Equal(got.Working(), ref.Working()) || got.DirtyLineCount() != ref.DirtyLineCount() {
				t.Errorf("%s(%d): cache contents differ from the replaced branch", r.name, n)
			}
		}
	}
}
