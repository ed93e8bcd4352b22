package nvm

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// lineModel is the per-line reference model of the device's flush, fence
// and crash semantics: a flag per line for the dirty and pending sets, every
// walk a scan of the whole device in ascending line order, every cost
// charged one line at a time. It shares nothing with Device's run list.
type lineModel struct {
	cost                 CostModel
	clock                int64
	stats                Stats
	media, working, undo []byte
	dirty, pending       []bool
}

func newLineModel(d *Device) *lineModel {
	n := d.Size() / LineSize
	return &lineModel{
		cost: d.Cost(), media: make([]byte, d.Size()), working: make([]byte, d.Size()),
		undo: make([]byte, d.Size()), dirty: make([]bool, n), pending: make([]bool, n),
	}
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
	copy(m.working[off:], src)
	for l := off / LineSize; l <= (off+len(src)-1)/LineSize; l++ {
		m.dirty[l] = true
	}
	m.stats.Stores++
	m.clock += m.cost.StorePS
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

// pendingHistory drives d and m through one seeded random history of
// stores, flushes, NT stores and fences, ending every round with a WBINVD or
// a crash under one of three policies, and fails at the first step where
// the two disagree on the clock, the counters, the media or the CPU view.
func pendingHistory(t *testing.T, d *Device, seed int64) {
	t.Helper()
	m := newLineModel(d)
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
		if !bytes.Equal(d.MediaSnapshot(), m.media) || !bytes.Equal(d.Working(), m.working) {
			t.Fatalf("seed %d %s: media or working diverged from the model", seed, step)
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
	}
	buf := make([]byte, 3*LineSize)
	storeFlush := func(l int) {
		d.Store(l*LineSize, buf[:8])
		m.store(l*LineSize, buf[:8])
		d.CLWB(l * LineSize)
		m.clwb(l)
	}
	for round := 0; round < 3; round++ {
		for step := 0; step < 300; step++ {
			rng.Read(buf)
			l := pick()
			switch rng.Intn(9) {
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
			default:
				d.SFence()
				m.sfence()
			}
			check(fmt.Sprintf("round %d step %d", round, step))
		}
		end := ends[(int(seed)+round)%len(ends)]
		if end.policy == nil {
			d.WBINVD()
			m.wbinvd()
		} else if got, want := d.CrashWith(end.policy(round)), m.crash(end.policy(round)); got != want {
			t.Fatalf("seed %d round %d %s: %d lines persisted, model %d", seed, round, end.name, got, want)
		}
		check(fmt.Sprintf("round %d %s", round, end.name))
	}
}

// TestPendingRunsMatchNaiveModel pins the device's run-list pending set
// against the per-line model: same simulated clock, counters, media, CPU
// view and persisted-line count after every step of seeded histories, with
// one history under FailAfter so FlushRange takes its per-line path.
func TestPendingRunsMatchNaiveModel(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		pendingHistory(t, NewDevice(1<<16), seed)
	}
	d := NewDevice(1 << 16)
	d.FailAfter(1 << 40)
	pendingHistory(t, d, 99)
}
