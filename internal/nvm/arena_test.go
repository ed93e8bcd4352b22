package nvm

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
)

// reuseSize is three whole touch chunks and part of a fourth, so a script
// reaches chunks it leaves clear and a chunk cut short by the device's end.
const reuseSize = 3*touchChunk + 4096

// drainIdle unmaps every idle arena, so the next NewDevice maps fresh memory.
func drainIdle() {
	idle.Lock()
	defer idle.Unlock()
	unmapIdle()
}

// reuseOpLen is the width of one script op: a kind byte, a three-byte
// offset, and an argument byte.
const reuseOpLen = 5

// runReuseScript drives d through every writer and every flush, fence and
// crash path, decoding ops from script, and returns what the script
// observed: each load's bytes and each crash's persisted-line count.
func runReuseScript(d *Device, script []byte) []int {
	var seen []int
	buf := make([]byte, 4096)
	for i := 0; i+reuseOpLen <= len(script); i += reuseOpLen {
		op := script[i : i+reuseOpLen]
		off := (int(op[1])<<16 | int(op[2])<<8 | int(op[3])) * LineSize / 8 % d.Size()
		n := 1 + int(op[4])*16
		n = min(n, d.Size()-off)
		for k := range buf[:n] {
			buf[k] = byte(i + k*31 + 1)
		}
		switch op[0] % 16 {
		case 0:
			d.Store(off, buf[:min(n, 8)])
		case 1:
			d.StoreBulk(off, buf[:n])
		case 2:
			d.NTStore(off, buf[:n])
		case 3:
			d.WriteCache(off, buf[:n])
		case 4:
			d.CorruptRange(off, n)
		case 5:
			d.TornWrite(min(off, d.Size()-MediaGranularity), int(op[4])%(MediaGranularity+1))
		case 6:
			d.CLWB(off)
		case 7:
			d.FlushRange(off, n)
		case 8:
			d.SFence()
		case 9:
			d.WBINVD()
		case 10:
			seen = append(seen, d.CrashWith(SeededCrash(rand.New(rand.NewSource(int64(off))))))
		case 11:
			seen = append(seen, d.CrashWith(PersistAll))
		case 12:
			seen = append(seen, d.CrashWith(DropAll))
		case 13:
			d.Load(off, buf[:min(n, 8)])
			for _, b := range buf[:min(n, 8)] {
				seen = append(seen, int(b))
			}
		case 14:
			d.ChargeLoad()
		case 15: // an NT store of the bytes working holds
			d.NTStore(off, buf[:copy(buf[:n], d.Working()[off:])])
		}
	}
	return seen
}

// reuseOp encodes one runReuseScript op of the given kind at byte offset
// off, a multiple of LineSize/8.
func reuseOp(kind byte, off int, arg byte) []byte {
	v := off / (LineSize / 8)
	return []byte{kind, byte(v >> 16), byte(v >> 8), byte(v), arg}
}

// reuseImage is a serialized device of reuseSize bytes whose media holds
// seed's bytes spread over every chunk.
func reuseImage(seed []byte) []byte {
	media := make([]byte, reuseSize)
	for i, b := range seed {
		media[(i*7919*LineSize+i)%reuseSize] = b | 1
	}
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:], mediaMagic)
	binary.LittleEndian.PutUint64(hdr[8:], reuseSize)
	return append(hdr[:], media...)
}

// FuzzDeviceReuse pins that reuse is invisible: a device on the arena a
// closed device handed back reads zero before its first write — media,
// working, the zero slot, and no line holding a media slot — and the same
// script on it and on freshly mapped memory ends with identical media
// snapshots and working arrays (full length), stats, clock, primitive
// count and crash outcomes — whatever the closed device's own script
// wrote, and through which writer.
func FuzzDeviceReuse(f *testing.F) {
	// An NT store alone into the third chunk, then fenced.
	f.Add(false, false, []byte{2, 0x04, 0x00, 0x00, 3, 8, 0, 0, 0, 0}, []byte{13, 0x04, 0x00, 0x00, 0})
	// A flushed and fenced store: clean at Close, but on the media.
	f.Add(false, false, []byte{0, 0x02, 0x00, 0x10, 0, 6, 0x02, 0x00, 0x10, 0, 8, 0, 0, 0, 0}, []byte{12, 0, 0, 0, 0})
	// Every writer and crash path, then a second script with eviction.
	all := make([]byte, 0, 16*reuseOpLen)
	for k := byte(0); k < 16; k++ {
		all = append(all, k, k*17, k*5, k, k*9)
	}
	f.Add(false, true, all, all)
	f.Add(true, false, []byte("an image"), all)
	// Each path a fresh line's zero media takes, then a fresh line's store,
	// a crash and a load: a write that reached the shared zero slot would
	// show on the reused device alone.
	lineOff := func(l int) int { return l * LineSize }
	store := func(l int) []byte { return reuseOp(0, lineOff(l), 0) }
	storeFlush := func(l int) []byte { return slices.Concat(store(l), reuseOp(6, lineOff(l), 0)) }
	then := slices.Concat(store(9), reuseOp(12, 0, 0), reuseOp(13, lineOff(9), 1))
	for _, first := range [][]byte{
		// A partial NT store over it.
		slices.Concat(store(5), reuseOp(2, lineOff(5)+8, 0)),
		// A media fault and a torn write on it.
		slices.Concat(store(5), reuseOp(4, lineOff(5), 0)),
		slices.Concat(store(5), reuseOp(5, lineOff(5), 100)),
		// A second store and flush in the epoch of the first.
		slices.Concat(storeFlush(5), storeFlush(5), reuseOp(8, 0, 0)),
		// A pending line whose undo is the zero slot, at each crash.
		slices.Concat(storeFlush(5), reuseOp(10, 0, 0), storeFlush(6), reuseOp(11, 0, 0), storeFlush(7), reuseOp(12, 0, 0)),
	} {
		f.Add(false, false, first, then)
	}
	// An NT store of the bytes a line holds, then each later writer before
	// the fence — a store, an NT store of other bytes, a cache-only write, a
	// media fault and a torn write — and each end: a WBINVD and the three
	// crashes. The line's media is not zero: a fenced store put bytes there.
	fenced := slices.Concat(storeFlush(5), reuseOp(8, 0, 0))
	for _, writer := range [][]byte{
		store(5), reuseOp(2, lineOff(5)+8, 0), reuseOp(3, lineOff(5), 0),
		reuseOp(4, lineOff(5), 0), reuseOp(5, lineOff(5), 100),
	} {
		for _, end := range []byte{9, 10, 11, 12} {
			f.Add(false, false, slices.Concat(fenced, reuseOp(15, lineOff(5), 3), writer, reuseOp(end, 0, 0)), then)
		}
	}
	f.Fuzz(func(t *testing.T, fromImage, evict bool, first, second []byte) {
		if len(first) > 64*reuseOpLen || len(second) > 64*reuseOpLen {
			return
		}
		drainIdle()
		var d *Device
		if fromImage {
			var err error
			if d, err = ReadDeviceFrom(bytes.NewReader(reuseImage(first))); err != nil {
				t.Fatal(err)
			}
		} else {
			d = NewDevice(reuseSize)
			runReuseScript(d, first)
		}
		arena := &d.arena[0]
		d.Close()

		var opts []Option
		fresh := func() *Device {
			if evict {
				opts = []Option{WithEvictionFuzz(0.2, rand.New(rand.NewSource(int64(len(second)))))}
			}
			return NewDevice(reuseSize, opts...)
		}
		reused := fresh()
		if &reused.arena[0] != arena {
			t.Fatal("NewDevice did not reuse the arena Close handed back")
		}
		nonzero := func(b byte) bool { return b != 0 }
		if i := slices.IndexFunc(reused.MediaSnapshot(), nonzero); i >= 0 {
			t.Fatalf("reused media byte %d is nonzero before any write", i)
		}
		if i := slices.IndexFunc(reused.Working(), nonzero); i >= 0 {
			t.Fatalf("reused working byte %d is nonzero before any write", i)
		}
		if i := slices.IndexFunc(reused.mediaSlot, func(s uint32) bool { return s != 0 }); i >= 0 {
			t.Fatalf("reused line %d has media slot %d before any write", i, reused.mediaSlot[i])
		}
		if i := slices.IndexFunc(reused.slot(reused.zeroSlot), nonzero); i >= 0 {
			t.Fatalf("reused zero slot byte %d is nonzero", i)
		}
		mapped := fresh()
		defer reused.Close()
		defer mapped.Close()

		gotSeen, wantSeen := runReuseScript(reused, second), runReuseScript(mapped, second)
		if !slices.Equal(gotSeen, wantSeen) {
			t.Fatalf("loads and crash outcomes differ: reused %v, fresh %v", gotSeen, wantSeen)
		}
		if !bytes.Equal(reused.MediaSnapshot(), mapped.MediaSnapshot()) || !bytes.Equal(reused.Working(), mapped.Working()) {
			t.Fatal("media or working differ between the reused and the fresh device")
		}
		if reused.Stats() != mapped.Stats() {
			t.Fatalf("stats differ: reused %v, fresh %v", reused.Stats(), mapped.Stats())
		}
		if reused.PrimitiveCount() != mapped.PrimitiveCount() {
			t.Fatalf("primitive counts differ: reused %d, fresh %d", reused.PrimitiveCount(), mapped.PrimitiveCount())
		}
		rc, mc := reused.Clock(), mapped.Clock()
		for cat := Category(0); cat < NumCategories; cat++ {
			if rc.CategoryPS(cat) != mc.CategoryPS(cat) {
				t.Fatalf("clock category %d differs: reused %d ps, fresh %d ps", cat, rc.CategoryPS(cat), mc.CategoryPS(cat))
			}
		}
		if rc.NowPS() != mc.NowPS() {
			t.Fatalf("clocks differ: reused %d ps, fresh %d ps", rc.NowPS(), mc.NowPS())
		}
	})
}

// TestCloseTwiceIsNoOp pins Close's idempotence: a second Close hands
// nothing back, so the free list never holds one arena twice.
func TestCloseTwiceIsNoOp(t *testing.T) {
	drainIdle()
	d := NewDevice(4096)
	d.Close()
	d.Close()
	if n := len(idle.bySize[4096]); n != 1 {
		t.Fatalf("%d idle arenas after closing one device twice, want 1", n)
	}
	a, b := NewDevice(4096), NewDevice(4096)
	if &a.arena[0] == &b.arena[0] {
		t.Fatal("two live devices share one arena")
	}
	a.Close()
	b.Close()
}

// TestUseAfterClosePanics pins that a closed device refuses every access
// rather than reading or writing an arena another device may own.
func TestUseAfterClosePanics(t *testing.T) {
	var buf [8]byte
	for name, use := range map[string]func(d *Device){
		"Store":      func(d *Device) { d.Store(0, buf[:]) },
		"Load":       func(d *Device) { d.Load(0, buf[:]) },
		"Working":    func(d *Device) { _ = d.Working()[0] },
		"NTStore":    func(d *Device) { d.NTStore(0, buf[:]) },
		"CLWB":       func(d *Device) { d.CLWB(0) },
		"WriteCache": func(d *Device) { d.WriteCache(0, buf[:]) },
		"Snapshot":   func(d *Device) { d.MediaSnapshot() },
	} {
		d := NewDevice(4096)
		d.Store(0, buf[:])
		d.Close()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s after Close did not panic", name)
				}
			}()
			use(d)
		}()
	}
}
