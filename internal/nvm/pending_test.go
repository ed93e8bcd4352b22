package nvm

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// lineModel is the per-line reference model of the device's writers and
// its flush, fence and crash semantics: three full arrays (media, working,
// undo), a flag per line for the dirty and pending sets, every walk a scan
// of the whole device in ascending line order, every cost charged one line
// at a time. It shares nothing with Device's run list or slot pool.
type lineModel struct {
	cost                 CostModel
	clock                int64
	stats                Stats
	media, working, undo []byte
	dirty, pending       []bool
	// evictProb and evictRng mirror WithEvictionFuzz: a source on the
	// device's seed, drawn from at the same stores.
	evictProb float64
	evictRng  *rand.Rand
}

func newLineModel(d *Device) *lineModel {
	n := d.Size() / LineSize
	return &lineModel{
		cost: d.Cost(), media: make([]byte, d.Size()), working: make([]byte, d.Size()),
		undo: make([]byte, d.Size()), dirty: make([]bool, n), pending: make([]bool, n),
	}
}

// reopen is a device read back from the media image: working equals media,
// no line is dirty or pending, and the clock and counters start again.
func (m *lineModel) reopen() {
	copy(m.working, m.media)
	clear(m.dirty)
	clear(m.pending)
	m.clock, m.stats = 0, Stats{}
}

func (m *lineModel) line(b []byte, l int) []byte { return b[l*LineSize : (l+1)*LineSize] }

// chunks counts the 256 B media chunks holding at least one line in the set.
func (m *lineModel) chunks(in func(l int) bool) int64 {
	per := MediaGranularity / LineSize
	var n int64
	for c := 0; c < len(m.dirty)/per; c++ {
		for l := c * per; l < (c+1)*per; l++ {
			if in(l) {
				n++
				break
			}
		}
	}
	return n
}

// countSet returns the number of lines set in flags.
func countSet(flags []bool) int {
	n := 0
	for _, f := range flags {
		if f {
			n++
		}
	}
	return n
}

func (m *lineModel) store(off int, src []byte) {
	m.markDirty(off, src)
	m.clock += m.cost.StorePS
}

func (m *lineModel) storeBulk(off int, src []byte) {
	m.markDirty(off, src)
	m.clock += int64(len(src)) * m.cost.DRAMBytePS
}

// markDirty is a cached store of src at off, which may evict its first line.
func (m *lineModel) markDirty(off int, src []byte) {
	copy(m.working[off:], src)
	for l := off / LineSize; l <= (off+len(src)-1)/LineSize; l++ {
		m.dirty[l] = true
	}
	m.stats.Stores++
	if l := off / LineSize; m.evictProb > 0 && m.evictRng.Float64() < m.evictProb && m.dirty[l] {
		copy(m.line(m.media, l), m.line(m.working, l))
		m.dirty[l] = false
		m.stats.EvictedLines++
		m.stats.FlushedLines++
		m.stats.MediaWriteBytes += MediaGranularity
	}
}

func (m *lineModel) writeCache(off int, src []byte) { copy(m.working[off:], src) }

func (m *lineModel) corrupt(off, n int) {
	for i := off; i < off+n; i++ {
		m.media[i] ^= 0xff
	}
	copy(m.working[off:off+n], m.media[off:off+n])
	for l := off / LineSize; l <= (off+n-1)/LineSize; l++ {
		m.dirty[l] = false
	}
}

func (m *lineModel) torn(off, cut int) {
	chunk := off / MediaGranularity * MediaGranularity
	copy(m.media[chunk:chunk+cut], m.working[chunk:chunk+cut])
	copy(m.working[chunk:chunk+MediaGranularity], m.media[chunk:chunk+MediaGranularity])
	for l := chunk / LineSize; l < (chunk+MediaGranularity)/LineSize; l++ {
		m.dirty[l] = false
	}
}

func (m *lineModel) markPending(l int) {
	if !m.pending[l] {
		m.pending[l] = true
		copy(m.line(m.undo, l), m.line(m.media, l))
	}
}

func (m *lineModel) clwb(l int) {
	m.stats.CLWBs++
	if !m.dirty[l] {
		m.clock += m.cost.CLWBPS / 10
		return
	}
	m.markPending(l)
	copy(m.line(m.media, l), m.line(m.working, l))
	m.dirty[l] = false
	m.stats.FlushedLines++
	m.clock += m.cost.CLWBPS
}

func (m *lineModel) ntStore(off int, src []byte) {
	first, last := off/LineSize, (off+len(src)-1)/LineSize
	for l := first; l <= last; l++ {
		m.markPending(l)
		if l*LineSize >= off && (l+1)*LineSize <= off+len(src) {
			m.dirty[l] = false
		}
	}
	copy(m.working[off:], src)
	copy(m.media[off:], src)
	m.stats.NTStoreBytes += int64(len(src))
	m.clock += int64(last-first+1) * LineSize * m.cost.NVMWriteBytePS
}

func (m *lineModel) sfence() {
	m.stats.SFences++
	m.clock += m.cost.SFencePS + int64(countSet(m.pending))*m.cost.SFenceLinePS
	m.stats.MediaWriteBytes += m.chunks(func(l int) bool { return m.pending[l] }) * MediaGranularity
	clear(m.pending)
}

func (m *lineModel) wbinvd() {
	m.stats.WBINVDs++
	nDirty := countSet(m.dirty)
	m.clock += m.cost.WBINVDPS + int64(nDirty)*m.cost.CLWBPS/2
	m.stats.MediaWriteBytes += m.chunks(func(l int) bool { return m.dirty[l] || m.pending[l] }) * MediaGranularity
	for l, dl := range m.dirty {
		if dl {
			copy(m.line(m.media, l), m.line(m.working, l))
		}
	}
	m.stats.FlushedLines += int64(nDirty)
	clear(m.dirty)
	clear(m.pending)
}

func (m *lineModel) crash(p CrashPolicy) int {
	persisted := 0
	landed := make([]bool, len(m.pending))
	for l, pl := range m.pending {
		if !pl {
			continue
		}
		if p.Persist(l, LinePending) {
			landed[l] = true
			persisted++
		} else {
			copy(m.line(m.media, l), m.line(m.undo, l))
		}
	}
	m.stats.MediaWriteBytes += m.chunks(func(l int) bool { return landed[l] }) * MediaGranularity
	clear(m.pending)
	for l, dl := range m.dirty {
		if dl && p.Persist(l, LineDirty) {
			copy(m.line(m.media, l), m.line(m.working, l))
			m.stats.MediaWriteBytes += MediaGranularity
			m.stats.EvictedLines++
			persisted++
		}
	}
	clear(m.dirty)
	copy(m.working, m.media)
	return persisted
}

// slotCounts returns the live media and undo slots and the pool's
// high-water mark, failing t where the slots' own books disagree: the
// entries naming a pool slot against the pool's live slots, those naming
// the zero slot against its reference count, those naming a log slot
// against the log's length, undo entries of 0 against the device's count
// of them, or the zero slot no longer reads zero. The zero slot is a media
// or undo slot but no pool slot, and an NT store's undo is the zero slot
// rather than a log slot wherever the media it saves is all zero. A log
// slot is only ever an undo, and undo 0, "equals media", only that of a
// line whose media is its working bytes.
func (d *Device) slotCounts(t testing.TB) (media, undo, top int) {
	t.Helper()
	pooled, zero, logged, held := 0, 0, 0, 0
	count := func(s uint32) {
		switch {
		case s == d.zeroSlot:
			zero++
		case s > d.zeroSlot:
			pooled++
		case s > d.logTop:
			t.Fatalf("undo slot %d lies past the log's %d slots", s, d.logTop)
		case s != 0:
			logged++
		default:
			held++
		}
	}
	for l := range d.mediaSlot {
		if s := d.mediaSlot[l]; s != 0 {
			if s < d.zeroSlot {
				t.Fatalf("line %d's media is log slot %d", l, s)
			}
			media++
			count(s)
		}
		if d.pending.Test(l) {
			if d.undoSlot[l] == 0 && d.mediaSlot[l] != 0 {
				t.Fatalf("line %d's undo says it equals its media, but the line diverges", l)
			}
			undo++
			count(d.undoSlot[l])
		}
	}
	if live := int(d.slotTop - d.nFree); pooled != live {
		t.Fatalf("%d media and undo slots live in the pool, the pool says %d", pooled, live)
	}
	if zero != int(d.zeroRefs) {
		t.Fatalf("%d media and undo entries name the zero slot, its count says %d", zero, d.zeroRefs)
	}
	if logged != int(d.logTop) {
		t.Fatalf("%d undo entries name a log slot, the log holds %d", logged, d.logTop)
	}
	if held != int(d.held) {
		t.Fatalf("%d undo entries are 0, the device counts %d", held, d.held)
	}
	if i := slices.IndexFunc(d.slot(d.zeroSlot), func(b byte) bool { return b != 0 }); i >= 0 {
		t.Fatalf("zero slot byte %d reads %#x", i, d.slot(d.zeroSlot)[i])
	}
	return media, undo, int(d.slotTop)
}

// deviceHistory drives a device and the line model through one seeded
// random history over every writer — stores, bulk stores, cache-only
// writes, NT stores whole and partial (often over dirty lines), NT stores
// of the bytes their lines already hold, media faults and torn writes — and
// every flush and fence, with eviction fuzz on
// every third seed and a WriteMediaTo→ReadDeviceFrom round trip now and
// then. Every round ends with a WBINVD or a crash under one of five
// policies. It fails at the first step where the two disagree on the clock,
// the counters, the dirty or pending count, the media or the CPU view, or
// where a pending line has no undo slot or a dirty line no media slot, or
// the slots' books disagree (slotCounts).
//
// script, two bytes a step, picks the first steps' op (the cases of the
// switch below, modulo 16) and line; op endRound ends the round at once.
// The seed still draws every other choice, and the history goes on at
// random once the script runs out.
func deviceHistory(t testing.TB, seed int64, failAfter bool, script []byte) {
	t.Helper()
	var opts []Option
	evictSeed := rand.New(rand.NewSource(seed))
	if seed%3 == 0 {
		opts = append(opts, WithEvictionFuzz(0.2, evictSeed))
	}
	d := NewDevice(1<<16, opts...)
	defer func() { d.Close() }()
	if failAfter {
		d.FailAfter(1 << 40)
	}
	m := newLineModel(d)
	if seed%3 == 0 {
		m.evictProb, m.evictRng = 0.2, rand.New(rand.NewSource(seed))
	}
	rng := rand.New(rand.NewSource(seed))
	lines := d.Size() / LineSize
	// pick favours the two ends of the device, so one fence often drains a
	// pair of lines as far apart as the device allows.
	pick := func() int {
		switch rng.Intn(4) {
		case 0:
			return rng.Intn(3)
		case 1:
			return lines - 1 - rng.Intn(3)
		default:
			return rng.Intn(lines)
		}
	}
	check := func(step string) {
		t.Helper()
		if got, want := d.Clock().NowPS(), m.clock; got != want {
			t.Fatalf("seed %d %s: clock %d ps, model %d ps", seed, step, got, want)
		}
		if got, want := d.Stats(), m.stats; got != want {
			t.Fatalf("seed %d %s: stats %v, model %v", seed, step, got, want)
		}
		if got, want := d.PendingLineCount(), countSet(m.pending); got != want {
			t.Fatalf("seed %d %s: %d pending lines, model %d", seed, step, got, want)
		}
		if got, want := d.DirtyLineCount(), countSet(m.dirty); got != want {
			t.Fatalf("seed %d %s: %d dirty lines, model %d", seed, step, got, want)
		}
		if !bytes.Equal(d.MediaSnapshot(), m.media) || !bytes.Equal(d.Working(), m.working) {
			t.Fatalf("seed %d %s: media or working diverged from the model", seed, step)
		}
		if media, undo, _ := d.slotCounts(t); undo != d.PendingLineCount() || media < d.DirtyLineCount() {
			t.Fatalf("seed %d %s: %d undo slots for %d pending lines, %d media slots for %d dirty lines",
				seed, step, undo, d.PendingLineCount(), media, d.DirtyLineCount())
		}
	}
	// Rounds end in turn with a WBINVD or a crash; each side of a seeded
	// crash gets its own source on the same seed.
	ends := []struct {
		name   string
		policy func(round int) CrashPolicy
	}{
		{"WBINVD", nil},
		{"SeededCrash", func(round int) CrashPolicy { return SeededCrash(rand.New(rand.NewSource(seed + int64(round)))) }},
		{"DropAll", func(int) CrashPolicy { return DropAll }},
		{"PersistAll", func(int) CrashPolicy { return PersistAll }},
		{"Alternating", func(round int) CrashPolicy { return Alternating(round) }},
	}
	// next picks a step's op and line. A random step draws the line first,
	// so a seed without a script keeps the history it always had.
	next := func() (op, l int) {
		if len(script) >= 2 {
			op, l = int(script[0]%16), int(script[1])
			script = script[2:]
			return op, l
		}
		l = pick()
		return rng.Intn(15), l
	}
	buf := make([]byte, 3*LineSize)
	storeFlush := func(l int) {
		d.Store(l*LineSize, buf[:8])
		m.store(l*LineSize, buf[:8])
		d.CLWB(l * LineSize)
		m.clwb(l)
	}
	for round := 0; round < 3; round++ {
	steps:
		for step := 0; step < 300; step++ {
			rng.Read(buf)
			op, l := next()
			switch op {
			case 0, 1:
				off := l*LineSize + rng.Intn(LineSize-8)
				d.Store(off, buf[:8])
				m.store(off, buf[:8])
			case 2: // CLWB, on a dirty or a clean line
				d.CLWB(l * LineSize)
				m.clwb(l)
			case 3:
				n := 1 + rng.Intn(min(16, lines-l))
				d.FlushRange(l*LineSize, n*LineSize)
				for k := l; k < l+n; k++ {
					m.clwb(k)
				}
			case 4: // NT store of 1 B to three lines, aligned or not, often over pending lines
				off := min(l*LineSize+rng.Intn(LineSize), d.Size()-1)
				n := 1 + rng.Intn(min(len(buf), d.Size()-off))
				d.NTStore(off, buf[:n])
				m.ntStore(off, buf[:n])
			case 5: // descending flushes: one run per line, appended out of order
				for k, stop := l, max(l-1-rng.Intn(6), -1); k > stop; k-- {
					storeFlush(k)
				}
			case 6: // a pair of lines at opposite ends of the device
				storeFlush(lines - 1 - rng.Intn(2))
				storeFlush(rng.Intn(2))
			case 7: // a bulk store over up to three lines
				off := min(l*LineSize+rng.Intn(LineSize), d.Size()-len(buf))
				n := 1 + rng.Intn(len(buf))
				d.StoreBulk(off, buf[:n])
				m.storeBulk(off, buf[:n])
			case 8: // bytes that stay in the cache, often over a dirty or pending line
				off := min(l*LineSize+rng.Intn(LineSize), d.Size()-LineSize)
				n := 1 + rng.Intn(LineSize)
				d.WriteCache(off, buf[:n])
				m.writeCache(off, buf[:n])
			case 9: // a store, then a partial-line NT store over the dirty line
				d.Store(l*LineSize, buf[:8])
				m.store(l*LineSize, buf[:8])
				off, n := l*LineSize+rng.Intn(LineSize), 1+rng.Intn(LineSize-1)
				n = min(n, d.Size()-off)
				d.NTStore(off, buf[8:8+n])
				m.ntStore(off, buf[8:8+n])
			case 10:
				off := min(l*LineSize+rng.Intn(LineSize), d.Size()-1)
				n := 1 + rng.Intn(min(2*LineSize, d.Size()-off))
				d.CorruptRange(off, n)
				m.corrupt(off, n)
			case 11:
				cut := rng.Intn(MediaGranularity + 1)
				d.TornWrite(l*LineSize, cut)
				m.torn(l*LineSize, cut)
			case 12:
				if rng.Intn(8) != 0 {
					break
				}
				var img bytes.Buffer
				if err := d.WriteMediaTo(&img); err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("round %d step %d WriteMediaTo", round, step))
				if !bytes.Equal(img.Bytes()[16:], m.media) {
					t.Fatalf("seed %d round %d step %d: the image is not the media", seed, round, step)
				}
				d.Close()
				var err error
				if d, err = ReadDeviceFrom(&img, opts...); err != nil {
					t.Fatal(err)
				}
				if failAfter {
					d.FailAfter(1 << 40)
				}
				m.reopen()
			case heldNT: // an NT store of the bytes its lines hold, often over pending or dirty lines
				off := min(l*LineSize+rng.Intn(LineSize), d.Size()-1)
				n := copy(buf[:1+rng.Intn(min(len(buf), d.Size()-off))], d.Working()[off:])
				// Half the stores that reach past their first line change
				// their last byte: lines that hold their bytes beside one
				// that does not.
				if (off+n-1)/LineSize > off/LineSize && rng.Intn(2) == 0 {
					buf[n-1] ^= 0xff
				}
				d.NTStore(off, buf[:n])
				m.ntStore(off, buf[:n])
			case endRound:
				break steps
			default:
				d.SFence()
				m.sfence()
				if _, undo, _ := d.slotCounts(t); undo != 0 {
					t.Fatalf("seed %d round %d step %d: %d undo slots live after SFence", seed, round, step, undo)
				}
			}
			check(fmt.Sprintf("round %d step %d", round, step))
		}
		end := ends[(uint64(seed)+uint64(round))%uint64(len(ends))]
		if end.policy == nil {
			d.WBINVD()
			m.wbinvd()
		} else {
			if got, want := d.CrashWith(end.policy(round)), m.crash(end.policy(round)); got != want {
				t.Fatalf("seed %d round %d %s: %d lines persisted, model %d", seed, round, end.name, got, want)
			}
			if media, undo, _ := d.slotCounts(t); media+undo != 0 {
				t.Fatalf("seed %d round %d %s: %d media and %d undo slots live after the crash", seed, round, end.name, media, undo)
			}
		}
		check(fmt.Sprintf("round %d %s", round, end.name))
	}
}

// TestPendingRunsMatchNaiveModel pins the device's run-list pending set and
// slot pool against the per-line model: same simulated clock, counters,
// media, CPU view and persisted-line count after every step of seeded
// histories, with one history under FailAfter so FlushRange takes its
// per-line path.
func TestPendingRunsMatchNaiveModel(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		deviceHistory(t, seed, false, nil)
	}
	deviceHistory(t, 99, true, nil)
}

// Three of deviceHistory's ops: heldNT is an NT store of the bytes its
// lines already hold, fence an SFence, and endRound ends the round, a
// WBINVD or a crash following at once.
const (
	heldNT = 13 + iota
	fence
	endRound
)

// zeroMediaScripts are deviceHistory scripts over fresh lines, whose media
// is the zero slot, one for each path that slot takes. Each runs on two
// seeds, so their rounds end under all five policies.
var zeroMediaScripts = [][]byte{
	// A partial NT store over a dirty fresh line, beside another, then a
	// fresh line after the fence.
	{0, 6, 9, 5, fence, 0, 0, 7},
	// A media fault on a dirty fresh line and one beside it.
	{0, 6, 0, 5, 10, 5, 0, 7},
	// A torn write over a chunk holding dirty fresh lines.
	{0, 4, 0, 5, 11, 5, 0, 7},
	// A second store and flush in the epoch of the first: the line's undo
	// is the zero slot, its new media a pool slot.
	{0, 5, 0, 6, 0, 7, 2, 5, 2, 6, 2, 7, 0, 5, 0, 6, 0, 7, 2, 5, 2, 6, 2, 7, fence, 0, 0, 5},
	// A pending line whose undo is the zero slot at each round's end.
	{0, 5, 2, 5, endRound, 0, 0, 6, 2, 6, endRound, 0, 0, 7, 2, 7, endRound, 0},
}

// ntUndoScripts are deviceHistory scripts for each undo an NT store takes
// short of a log copy. Each ends its first round at once, and runs on five
// seeds, so that round ends under all five policies.
var ntUndoScripts = func() [][]byte {
	scripts := [][]byte{
		// An NT store over a fresh line's zero media, and over a dirty fresh
		// line, whose media is the zero slot: the zero slot is the undo.
		{4, 5, endRound, 0},
		{0, 5, 4, 5, endRound, 0},
	}
	// An NT store of the bytes a line holds takes undo 0, which each later
	// writer before the fence must first turn into a copy: a store, a bulk
	// store, an NT store of other bytes, a cache-only write, a store and a
	// partial NT store, a media fault and a torn write. The line's media is
	// zero, or not zero after a fenced store.
	for _, writer := range []byte{0, 7, 4, 8, 9, 10, 11} {
		held := []byte{heldNT, 5, writer, 5, endRound, 0}
		scripts = append(scripts, held, slices.Concat([]byte{0, 5, 2, 5, fence, 0}, held))
	}
	return scripts
}()

// FuzzDeviceHistory runs deviceHistory on arbitrary seeds and scripts: a
// seed picks the history, and whether eviction fuzz and the per-line flush
// path are on.
func FuzzDeviceHistory(f *testing.F) {
	for seed := int64(1); seed <= 12; seed++ {
		f.Add(seed, []byte(nil))
	}
	for _, script := range zeroMediaScripts {
		f.Add(int64(1), script)
		f.Add(int64(4), script)
	}
	for _, script := range ntUndoScripts {
		for seed := int64(1); seed <= 5; seed++ {
			f.Add(seed, script)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, script []byte) { deviceHistory(t, seed, seed%5 == 4, script) })
}

// TestSlotPoolTracksDivergedLines pins the pool's bounds: a fresh device's
// first epoch takes no pool slot, since every line it dirties had zero
// media; no undo slot outlives its fence, no slot outlives a crash or a
// WBINVD and its fence, and over a populate-then-cut script the pool never
// grows past the peak number of dirty plus pending lines.
func TestSlotPoolTracksDivergedLines(t *testing.T) {
	d := NewDevice(1 << 20)
	defer d.Close()
	rng := rand.New(rand.NewSource(1))
	var word [8]byte
	seg := make([]byte, 4096)
	rng.Read(word[:])
	rng.Read(seg)
	for i := 0; i < 4000; i++ {
		d.Store(rng.Intn(d.Size()/len(word))*len(word), word[:])
	}
	d.FlushRange(0, d.Size())
	d.SFence()
	if _, _, top := d.slotCounts(t); top != 0 {
		t.Fatalf("a fresh device's first epoch took %d pool slots, want 0", top)
	}
	peak := 0
	note := func() { peak = max(peak, d.DirtyLineCount()+d.PendingLineCount()) }
	populate := func(n int) {
		for i := 0; i < n; i++ {
			if i%50 == 0 {
				d.NTStore(rng.Intn(d.Size()/len(seg))*len(seg), seg)
			} else {
				d.Store(rng.Intn(d.Size()/len(word))*len(word), word[:])
			}
			note()
		}
	}
	for cut := 0; cut < 20; cut++ {
		populate(100 + cut*50)
		d.FlushRange(0, d.Size())
		note()
		d.SFence()
		if _, undo, _ := d.slotCounts(t); undo != 0 {
			t.Fatalf("cut %d: %d undo slots live after SFence", cut, undo)
		}
	}
	if _, _, top := d.slotCounts(t); top > peak {
		t.Fatalf("the pool grew to %d slots, the peak dirty plus pending lines were %d", top, peak)
	}
	populate(300)
	d.FlushRange(0, d.Size()/2)
	d.WBINVD()
	d.SFence()
	if media, undo, _ := d.slotCounts(t); media+undo != 0 {
		t.Fatalf("%d media and %d undo slots live after WBINVD and SFence", media, undo)
	}
	populate(300)
	d.FlushRange(0, d.Size()/2)
	d.WriteCache(100, word[:])
	d.CrashWith(Alternating(0))
	if media, undo, top := d.slotCounts(t); media+undo+top != 0 {
		t.Fatalf("%d media and %d undo slots live after a crash, %d in the pool", media, undo, top)
	}
}
