package nvm

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"unsafe"

	"libcrpm/internal/bitmap"
)

// Device is a simulated NVM DIMM plus the volatile CPU cache in front of it.
//
// working is what the CPU observes (cache contents merged over media); the
// media is what survives a crash. A line's media differs from working only
// while the line diverges — it is dirty, or WriteCache put bytes in the
// cache alone — and only then does the device keep it apart, in a slot.
// Stores update working and mark the containing cache lines dirty; CLWB +
// SFence (or WBINVD, or spontaneous eviction) move line contents into media.
// Crash makes every not-yet-guaranteed line independently persist or vanish,
// which is the adversarial model the paper's failure-atomicity argument must
// survive.
type Device struct {
	size int
	// arena holds working and the slot pool (arena.go); nil once the device
	// is closed, with the views.
	arena   []byte
	working []byte
	// mediaSlot[l] names the slot holding line l's media while the line
	// diverges (0: none); undoSlot[l], read only while l is pending, the
	// slot holding its pre-flush media (0: the media itself, which an NT
	// store that left the line's bytes alone did not change). An NT store
	// puts its lines' undo in the log, slots 1..logTop, which every fence
	// empties. The slot just past the log, zeroSlot, is never written, so it
	// reads zero: it is the media and the undo of every line whose media is
	// all zero, as a fresh line's is, and zeroRefs counts the media and undo
	// entries naming it. Slots past it are the pool: a line whose media is
	// not zero gets a pool slot at its first store or WriteCache; a line's
	// media slot turns into its undo at a flush and is freed at the fence.
	// Freed slots are reused last-in first-out: free holds nFree of them,
	// and slotTop pool slots have been handed out.
	mediaSlot, undoSlot, free        []uint32
	slots                            []byte
	slotTop, nFree, logTop, zeroRefs uint32
	zeroSlot                         uint32
	// held counts the pending lines whose undo is 0, so that a writer looks
	// for such a line to give a real undo (keepUndo) only while one exists.
	held uint32
	// touched flags every touchChunk-sized chunk a writer of working
	// reached. Only lines there hold slots, so Close clears, and a crash
	// looks for diverged lines, only there.
	touched []bool
	// guard holds the arena and the DRAM regions, and unmaps them for a
	// device nobody closed; Close disarms it.
	guard *arenaGuard

	// dirty marks cache lines written but not yet flushed.
	dirty *bitmap.Set
	// pending marks lines flushed (CLWB/NT) since the last fence. At a
	// crash each pending line may be rolled back to its undo slot,
	// modelling an in-flight flush that never reached the media. The bitmap
	// answers membership and the count; walks go through pendRuns.
	pending *bitmap.Set
	// pendRuns lists the pending lines as disjoint half-open runs in the
	// order they were flushed (a line joins at most once per fence epoch);
	// pendingRuns sorts it before a walk. A fence therefore costs the lines
	// it drains, however far apart they lie. Reused across fences.
	pendRuns []lineRun

	clock *Clock
	cost  CostModel
	stats Stats

	// evictProb, when non-zero, makes each small store spontaneously evict
	// its line to media with this probability (worst-case cache behaviour
	// fuzzing for crash-consistency tests).
	evictProb float64
	evictRng  *rand.Rand

	// failAfter, when >= 0, counts down on every primitive; reaching zero
	// panics with InjectedCrash, letting tests place a crash at any point
	// inside a protocol.
	failAfter int64
	// primCount counts every primitive ever executed (stores, loads,
	// per-line flushes, fences), at exactly the granularity the failure
	// injection ticks at. A reference run's final count therefore bounds
	// the crash points a torture sweep must visit, and replaying with
	// FailAfter(k) for k < PrimitiveCount() crashes at primitive k+1.
	primCount int64
}

// OpKind classifies the device primitive at which an injected crash fired.
type OpKind uint8

const (
	// OpStore is a cached store (Store, StoreBulk) or a non-temporal store.
	OpStore OpKind = iota
	// OpLoad is a small load.
	OpLoad
	// OpFlush is a cache-line write-back (CLWB, one line of FlushRange, or
	// WBINVD).
	OpFlush
	// OpFence is a store fence.
	OpFence
)

// String names the kind.
func (k OpKind) String() string {
	switch k {
	case OpStore:
		return "store"
	case OpLoad:
		return "load"
	case OpFlush:
		return "flush"
	case OpFence:
		return "fence"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// InjectedCrash is the panic value raised when a FailAfter countdown
// expires. Tests recover it, call Crash (or CrashWith), and reopen the
// container. Index and Kind identify the exact primitive the crash fired
// on, so a torture failure is replayable from the panic value alone:
// FailAfter(Index-1) on an identical run crashes at the same point.
type InjectedCrash struct {
	// Index is the 1-based primitive count at the crash point.
	Index int64
	// Kind is the primitive class the crash interrupted.
	Kind OpKind
}

// Error implements error.
func (c InjectedCrash) Error() string {
	return fmt.Sprintf("nvm: injected crash at primitive %d (%s)", c.Index, c.Kind)
}

// FailAfter schedules an InjectedCrash panic after n more primitives
// (stores, loads, flushes, fences). n < 0 disables injection.
func (d *Device) FailAfter(n int64) { d.failAfter = n }

// PrimitiveCount returns the number of primitives executed so far, at the
// same granularity FailAfter counts them.
func (d *Device) PrimitiveCount() int64 { return d.primCount }

// tick advances the primitive counter and the failure-injection countdown.
func (d *Device) tick(kind OpKind) {
	d.primCount++
	if d.failAfter < 0 {
		return
	}
	if d.failAfter == 0 {
		d.failAfter = -1
		panic(InjectedCrash{Index: d.primCount, Kind: kind})
	}
	d.failAfter--
}

// Option configures a Device.
type Option func(*Device)

// WithEvictionFuzz enables spontaneous line eviction with probability p per
// store, using the given deterministic source.
func WithEvictionFuzz(p float64, rng *rand.Rand) Option {
	return func(d *Device) {
		d.evictProb = p
		d.evictRng = rng
	}
}

// touchChunk is the granularity of the touched flags: the unit Close clears.
const touchChunk = 64 << 10

// NewDevice creates a device of the given size in bytes (rounded up to a
// whole number of cache lines) with zeroed media. Its memory comes from a
// closed device of the same size where one is idle; Close hands it back.
func NewDevice(size int, opts ...Option) *Device {
	if size <= 0 {
		panic("nvm: non-positive device size")
	}
	size = (size + LineSize - 1) / LineSize * LineSize
	arena := takeArena(size)
	media, undo, free, slots, end := arenaLayout(size)
	d := &Device{
		size:      size,
		arena:     arena,
		working:   arena[:media:media],
		mediaSlot: words(arena[media:undo]),
		undoSlot:  words(arena[undo:free]),
		free:      words(arena[free:slots]),
		slots:     arena[slots:end:end],
		zeroSlot:  uint32(size/LineSize) + 1,
		touched:   make([]bool, (size+touchChunk-1)/touchChunk),
		dirty:     bitmap.New(size / LineSize),
		pending:   bitmap.New(size / LineSize),
		clock:     NewClock(),
		cost:      currentDefaultCostModel(),
		failAfter: -1,
	}
	for _, o := range opts {
		o(d)
	}
	// The leak guard unmaps and never pools: a device nobody closed may
	// still have a Working() slice out, which must fault, not alias.
	d.guard = &arenaGuard{arena: arena}
	runtime.SetFinalizer(d.guard, (*arenaGuard).unmap)
	return d
}

// arenaGuard is the leak guard's handle on an arena and on the DRAM regions
// its device handed out. Only its device points to it, so it becomes
// unreachable with the device and its finalizer unmaps them all; a finalizer
// on the Device itself would hold the device's own memory for another
// collection.
type arenaGuard struct {
	arena []byte
	dram  [][]byte
}

func (g *arenaGuard) unmap() {
	unmapArena(g.arena)
	g.unmapDRAM()
}

func (g *arenaGuard) unmapDRAM() {
	for _, b := range g.dram {
		unmapArena(b)
	}
	g.dram = nil
}

// DRAM returns n zero bytes of the simulated machine's DRAM beside this
// device, for a backend's heap-sized volatile image (buffered mode's working
// buffer, InCLL's mirror, FTI's buffer). It is mapped like the arena, off
// the Go heap, and lives as long as the device: Close unmaps it, and so does
// the leak guard for a device nobody closed. It is never pooled, so a slice
// of it used after Close faults instead of aliasing another device's
// memory. A crash leaves it alone: a backend reopened on the device asks for
// a fresh one.
func (d *Device) DRAM(n int) []byte {
	if d.arena == nil {
		panic("nvm: DRAM of a closed device")
	}
	b := mapArena(n)
	d.guard.dram = append(d.guard.dram, b)
	return b
}

// FreeDRAM unmaps a region DRAM handed out, before its device closes, for
// DRAM whose use ends before the device's (a replica delta's payload): the
// region leaves the leak guard, so Close unmaps it no second time. Any later
// access through b faults. b must be a region of this open device, whole or
// resliced from its start.
func (d *Device) FreeDRAM(b []byte) {
	if d.arena == nil {
		panic("nvm: FreeDRAM on a closed device")
	}
	g := d.guard
	i := slices.IndexFunc(g.dram, func(r []byte) bool { return unsafe.SliceData(r) == unsafe.SliceData(b) })
	if i < 0 {
		panic("nvm: FreeDRAM of memory this device did not hand out")
	}
	unmapArena(g.dram[i])
	g.dram = slices.Delete(g.dram, i, i+1)
}

// Close hands the device's memory back for a later NewDevice of the same
// size: it drops the cache as a power failure would, clears the touched
// chunks of working, puts the arena on the free list and unmaps every DRAM
// region. Every later access panics, and a slice Working() or DRAM returned
// must not be used again. Closing twice is a no-op.
func (d *Device) Close() {
	if d.arena == nil {
		return
	}
	runtime.SetFinalizer(d.guard, nil)
	d.guard.unmapDRAM()
	d.guard = nil
	d.CrashWith(DropAll) // empties the slot index and the pool
	d.eachTouched(func(lo, hi int) { clear(d.working[lo:hi]) })
	giveArena(d.size, d.arena)
	d.arena, d.working, d.mediaSlot, d.undoSlot, d.free, d.slots = nil, nil, nil, nil, nil, nil
}

// touch flags the chunks [off, off+n) reaches as written.
func (d *Device) touch(off, n int) {
	for c := off / touchChunk; c <= (off+n-1)/touchChunk; c++ {
		d.touched[c] = true
	}
}

// eachTouched calls fn with the byte range [lo, hi) of every touched chunk.
func (d *Device) eachTouched(fn func(lo, hi int)) {
	for c, t := range d.touched {
		if t {
			lo := c * touchChunk
			fn(lo, min(lo+touchChunk, d.size))
		}
	}
}

// line returns line l of b.
func line(b []byte, l int) []byte { return b[l*LineSize : (l+1)*LineSize] }

func (d *Device) slot(s uint32) []byte { return line(d.slots, int(s)) }

// newSlot returns a slot holding a copy of src: the zero slot when src is
// all zero, which copies nothing, and a pool slot otherwise.
func (d *Device) newSlot(src []byte) uint32 {
	if zeroLine(src) {
		d.zeroRefs++
		return d.zeroSlot
	}
	s := d.poolSlot()
	*(*[LineSize]byte)(d.slot(s)) = *(*[LineSize]byte)(src)
	return s
}

// poolSlot hands out a pool slot, the most recently freed one first; an
// empty stack gives a slot never handed out. Its bytes are stale.
func (d *Device) poolSlot() uint32 {
	if d.nFree == 0 {
		d.slotTop++
		return d.zeroSlot + d.slotTop
	}
	d.nFree--
	return d.free[d.nFree]
}

// freeSlot drops a media or undo entry's slot: a pool slot goes back on
// the stack, the zero slot loses a reference.
func (d *Device) freeSlot(s uint32) {
	if s == d.zeroSlot {
		d.zeroRefs--
		return
	}
	d.free[d.nFree] = s
	d.nFree++
}

// words64 views the line b begins as the words it holds.
func words64(b []byte) *[LineSize / 8]uint64 {
	return (*[LineSize / 8]uint64)(unsafe.Pointer(unsafe.SliceData(b)))
}

// zeroLine reports whether the line b holds only zero bytes.
func zeroLine(b []byte) bool {
	w := words64(b)
	return w[0]|w[1]|w[2]|w[3]|w[4]|w[5]|w[6]|w[7] == 0
}

// sameLine reports whether the lines a and b begin hold the same bytes.
func sameLine(a, b []byte) bool {
	x, y := words64(a), words64(b)
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

// media returns line l's media bytes: its media slot while it diverges,
// its working bytes otherwise.
func (d *Device) media(l int) []byte {
	if s := d.mediaSlot[l]; s != 0 {
		return d.slot(s)
	}
	return line(d.working, l)
}

// ownMedia returns line l's media bytes for a writer that edits them in
// place. A line whose media is the zero slot first gets a zeroed pool slot
// of its own, so the edit reaches no other line.
func (d *Device) ownMedia(l int) []byte {
	if d.mediaSlot[l] == d.zeroSlot {
		d.zeroRefs--
		d.mediaSlot[l] = d.poolSlot()
		clear(d.slot(d.mediaSlot[l]))
	}
	return d.media(l)
}

// converge frees line l's media slot: its media equals working again.
func (d *Device) converge(l int) {
	if s := d.mediaSlot[l]; s != 0 {
		d.freeSlot(s)
		d.mediaSlot[l] = 0
	}
}

// eachDiverged calls fn with every line that diverges and its media bytes,
// in ascending order.
func (d *Device) eachDiverged(fn func(l int, media []byte)) {
	if d.slotTop == d.nFree && d.logTop == 0 && d.zeroRefs == 0 {
		return // no slot is live, so no line diverges
	}
	d.eachTouched(func(lo, hi int) {
		for l := lo / LineSize; l < hi/LineSize; l++ {
			if s := d.mediaSlot[l]; s != 0 {
				fn(l, d.slot(s))
			}
		}
	})
}

// Size returns the device capacity in bytes.
func (d *Device) Size() int { return d.size }

// Clock returns the simulated clock driven by this device.
func (d *Device) Clock() *Clock { return d.clock }

// Cost returns the active cost model.
func (d *Device) Cost() CostModel { return d.cost }

// Stats returns a snapshot of the event counters.
func (d *Device) Stats() Stats { return d.stats }

// Working returns the CPU-visible byte array. Callers may read from it
// directly (charging load costs themselves where appropriate) but must
// perform all writes through Store/StoreBulk/NTStore so that dirty-line
// tracking stays exact.
func (d *Device) Working() []byte { return d.working }

// MediaSnapshot returns a copy of the durable media contents, for tests that
// compare pre- and post-crash durable state.
func (d *Device) MediaSnapshot() []byte {
	d.checkRange(0, d.size)
	out := slices.Clone(d.working)
	d.eachDiverged(func(l int, m []byte) { copy(line(out, l), m) })
	return out
}

// checkRange panics unless [off, off+n) lies on the device; a closed
// device's working array is nil, so nothing does.
func (d *Device) checkRange(off, n int) {
	if off < 0 || n < 0 || off+n > len(d.working) {
		d.badAccess(off, n)
	}
}

func (d *Device) badAccess(off, n int) {
	if d.arena == nil {
		panic("nvm: access to a closed device")
	}
	panic(fmt.Sprintf("nvm: access [%d,%d) outside device of %d bytes", off, off+n, d.size))
}

// markDirty counts a cached store to [off, off+n) and marks its lines dirty;
// under eviction fuzz the first may evict at once.
func (d *Device) markDirty(off, n int) {
	first, last := off/LineSize, (off+n-1)/LineSize
	d.dirty.SetRange(first, last+1)
	d.stats.Stores++
	if d.evictProb > 0 && d.evictRng.Float64() < d.evictProb && d.dirty.Test(first) {
		// The line spontaneously writes back, as a real cache may do at any
		// moment.
		d.converge(first)
		d.dirty.Clear(first)
		d.stats.EvictedLines++
		d.stats.FlushedLines++
		d.stats.MediaWriteBytes += MediaGranularity
	}
}

// flushLine writes dirty line l back to media. Its media slot, the content
// from before the flush, becomes its undo slot, unless an earlier flush in
// this fence epoch left one.
func (d *Device) flushLine(l int) {
	s := d.mediaSlot[l]
	d.mediaSlot[l] = 0
	if d.pending.Set(l) {
		d.addRun(l, l+1)
		d.undoSlot[l] = s
	} else {
		d.freeSlot(s)
	}
}

// lineRun is the half-open range of cache lines [from, to).
type lineRun struct{ from, to int }

// addRun records the newly pending lines [from, to), extending the last run
// when they follow it.
func (d *Device) addRun(from, to int) {
	if n := len(d.pendRuns); n > 0 && d.pendRuns[n-1].to == from {
		d.pendRuns[n-1].to = to
		return
	}
	d.pendRuns = append(d.pendRuns, lineRun{from, to})
}

// pendingRuns returns the pending runs in ascending order, the order every
// walk of the pending set visits lines in.
func (d *Device) pendingRuns() []lineRun {
	slices.SortFunc(d.pendRuns, func(a, b lineRun) int { return a.from - b.from })
	return d.pendRuns
}

// clearPending empties the pending set with one ClearRange per run, so it
// touches only the bitmap words holding pending lines.
func (d *Device) clearPending() {
	for _, r := range d.pendRuns {
		d.pending.ClearRange(r.from, r.to)
	}
	d.pendRuns = d.pendRuns[:0]
}

// chunkCount counts the distinct media chunks among lines added in ascending
// order: lines sharing a chunk arrive together, so a transition test stands
// in for a per-call set. Adding the same line twice in a row counts it once.
type chunkCount struct{ n, last int }

func (c *chunkCount) add(l int) {
	if ch := l * LineSize / MediaGranularity; c.n == 0 || ch != c.last {
		c.n++
		c.last = ch
	}
}

func (c *chunkCount) bytes() int64 { return int64(c.n) * MediaGranularity }

// Store writes a small value (typically <= 8 bytes) through the cache.
func (d *Device) Store(off int, src []byte) {
	d.tick(OpStore)
	d.WriteCache(off, src)
	d.markDirty(off, len(src))
	d.clock.Advance(d.cost.StorePS)
}

// StoreBulk writes a larger buffer through the cache, charged at DRAM-copy
// bandwidth (the data lands in cache, not yet in media).
func (d *Device) StoreBulk(off int, src []byte) {
	d.tick(OpStore)
	if len(src) == 0 {
		return
	}
	d.WriteCache(off, src)
	d.markDirty(off, len(src))
	d.clock.Advance(int64(len(src)) * d.cost.DRAMBytePS)
}

// Load reads a small value, charging one load.
func (d *Device) Load(off int, dst []byte) {
	d.tick(OpLoad)
	d.checkRange(off, len(dst))
	copy(dst, d.working[off:])
	d.stats.Loads++
	d.clock.Advance(d.cost.LoadPS)
}

// NTStore performs a non-temporal (cache-bypassing) write: working and media
// are both updated, but durability is only guaranteed after the next SFence.
// Lines fully covered by the write leave the cache-dirty set. Charged at NVM
// write bandwidth; this models the AVX-512 non-temporal copy path the paper
// uses for segment and block copies.
//
// The host copies only what changes. src is compared with working a stride
// at a time, and a stride that already holds its bytes is not written. Each
// line the store makes pending takes an undo (ntUndo), a copy in the log
// only where its media is not zero and the store changes it or the line
// diverges. None of this moves the clock, the counters or the pending set,
// so every CrashPolicy draws the image it always drew.
func (d *Device) NTStore(off int, src []byte) {
	d.tick(OpStore)
	n := len(src)
	if n == 0 {
		return
	}
	d.checkRange(off, n)
	first, last := off/LineSize, (off+n-1)/LineSize
	for lo, hi := off, 0; lo < off+n; lo = hi {
		hi = min(off+n, (lo/ntStride+1)*ntStride)
		w, s := d.working[lo:hi], src[lo-off:hi-off]
		same := bytes.Equal(w, s)
		d.ntUndo(lo, s, same)
		if !same {
			copy(w, s)
		}
	}
	// Lines fc0..fc1-1 lie wholly inside the write: no newer cached data is
	// left in them, and their media equals working again.
	fc0, fc1 := (off+LineSize-1)/LineSize, (off+n)/LineSize
	for l := first; l <= last; l++ {
		if l >= fc0 && l < fc1 {
			d.converge(l)
		} else if d.mediaSlot[l] != 0 {
			lo, hi := max(off, l*LineSize), min(off+n, (l+1)*LineSize)
			copy(d.ownMedia(l)[lo-l*LineSize:], src[lo-off:hi-off])
		}
	}
	d.dirty.ClearRange(fc0, max(fc0, fc1))
	// Every chunk holding a pending line stays flagged, written or not: a
	// crash looks for the lines it rolls back only there.
	d.touch(off, n)
	d.stats.NTStoreBytes += int64(n)
	// Write-combining fills whole lines: a small NT store still moves a
	// full cache line to the media.
	chargeBytes := int64(last-first+1) * LineSize
	d.clock.Advance(chargeBytes * d.cost.NVMWriteBytePS)
}

// ntStride is the span NTStore compares src with working in, a whole
// number of lines: a stride that already holds its bytes costs one compare
// and no copy.
const ntStride = 16 * LineSize

// ntUndo readies the lines of one stride of an NT store, s written at lo,
// before working or media change; same reports that working already holds
// s. Each run of lines not yet pending joins the pending set, each line
// taking as its undo the first of these that fits:
//   - where the line diverges, its media slot's bytes: the zero slot if
//     they are all zero, a copy in the log if not;
//   - in a stride that already holds s, 0, "equals media": nothing to copy
//     until a later writer changes the line (keepUndo);
//   - the zero slot, where the line's media, its working bytes, is all zero;
//   - 0, where the line already holds its part of s;
//   - a copy of its working bytes in the log.
//
// A line already pending keeps its undo, unless it is 0 and the stride
// changes.
func (d *Device) ntUndo(lo int, s []byte, same bool) {
	hi := lo + len(s)
	var held, zero uint32
	for l, end := lo/LineSize, (hi-1)/LineSize+1; l < end; l++ {
		p := d.pending.NextSetInRange(l, end)
		if p < 0 {
			p = end
		}
		if p > l {
			d.pending.SetRange(l, p)
			d.addRun(l, p)
		}
		for ; l < p; l++ {
			switch m := d.mediaSlot[l]; {
			case m != 0:
				d.undoSlot[l] = d.logSlot(d.slot(m))
			case same:
				d.undoSlot[l] = 0
				held++
			case zeroLine(line(d.working, l)):
				d.undoSlot[l] = d.zeroSlot
				zero++
			case d.holds(l, lo, s):
				d.undoSlot[l] = 0
				held++
			default:
				d.undoSlot[l] = d.logCopy(line(d.working, l))
			}
		}
		if l < end && !same {
			d.keepUndo(l)
		}
	}
	d.held += held
	d.zeroRefs += zero
}

// holds reports whether line l of working already holds the bytes of s,
// written at lo, that fall in it.
func (d *Device) holds(l, lo int, s []byte) bool {
	a, b := max(lo, l*LineSize), min(lo+len(s), (l+1)*LineSize)
	if b-a == LineSize {
		return sameLine(d.working[a:], s[a-lo:])
	}
	return bytes.Equal(d.working[a:b], s[a-lo:b-lo])
}

// logSlot returns an undo slot holding a copy of src: the zero slot when src
// is all zero, which copies nothing, and the log's next slot otherwise.
func (d *Device) logSlot(src []byte) uint32 {
	if zeroLine(src) {
		d.zeroRefs++
		return d.zeroSlot
	}
	return d.logCopy(src)
}

// logCopy copies the line src into the log's next slot and returns it.
func (d *Device) logCopy(src []byte) uint32 {
	d.logTop++
	*(*[LineSize]byte)(d.slot(d.logTop)) = *(*[LineSize]byte)(src)
	return d.logTop
}

// keepUndo gives pending line l a real undo before a writer changes it. An
// NT store that left a line's bytes as they were gave it undo 0, "equals
// media": true only while nothing else writes the line, whose media is
// then its working bytes.
func (d *Device) keepUndo(l int) {
	if d.held > 0 && d.pending.Test(l) && d.undoSlot[l] == 0 {
		d.held--
		d.undoSlot[l] = d.logSlot(line(d.working, l))
	}
}

// WriteCache puts src at off into the CPU view only, as a store that stays
// in the cache: no line turns dirty, so the bytes reach the media only
// through a later store of their own and a crash drops them. It is neither
// a primitive nor charged; the caller prices the copy. Core stages writes to
// a segment its pending cut still has to copy this way.
func (d *Device) WriteCache(off int, src []byte) {
	d.checkRange(off, len(src))
	// A line's media moves to a slot before working first differs from it;
	// a line that has one keeps it.
	for l := off / LineSize; l <= (off+len(src)-1)/LineSize; l++ {
		d.keepUndo(l)
		if d.mediaSlot[l] == 0 {
			d.mediaSlot[l] = d.newSlot(line(d.working, l))
		}
	}
	copy(d.working[off:], src)
	d.touch(off, len(src))
}

// CLWB writes the cache line containing off back to media. The write is not
// crash-guaranteed until the next SFence. Flushing a clean line costs a
// fraction of a dirty flush and moves no data.
func (d *Device) CLWB(off int) {
	d.tick(OpFlush)
	d.checkRange(off, 1)
	d.clwbLine(off / LineSize)
}

// clwbLine is the body of CLWB after range checking and failure injection.
func (d *Device) clwbLine(l int) {
	d.stats.CLWBs++
	if !d.dirty.Test(l) {
		d.clock.Advance(d.cost.CLWBPS / 10)
		return
	}
	d.flushLine(l)
	d.dirty.Clear(l)
	d.stats.FlushedLines++
	d.clock.Advance(d.cost.CLWBPS)
}

// FlushRange issues CLWB for every cache line overlapping [off, off+n).
// Clean lines are skipped at word granularity and the per-line costs are
// charged in one batch, so flushing a large mostly-clean range touches only
// its dirty lines; simulated time, stats, and crash semantics are identical
// to a CLWB loop over the same lines.
func (d *Device) FlushRange(off, n int) {
	if n <= 0 {
		return
	}
	d.checkRange(off, n)
	first, last := off/LineSize, (off+n-1)/LineSize
	if d.failAfter >= 0 {
		// Failure injection counts every line flush as one primitive; keep
		// the per-line tick so crash points land exactly as before.
		for l := first; l <= last; l++ {
			d.tick(OpFlush)
			d.clwbLine(l)
		}
		return
	}
	total := int64(last - first + 1)
	// The batched path skips the per-line tick; keep the primitive counter
	// identical to the injection path so sweep replays land crash points at
	// the same indices a counting run reported.
	d.primCount += total
	var flushed int64
	for l := d.dirty.NextSetInRange(first, last+1); l >= 0; l = d.dirty.NextSetInRange(l+1, last+1) {
		d.flushLine(l)
		flushed++
	}
	d.dirty.ClearRange(first, last+1)
	d.stats.CLWBs += total
	d.stats.FlushedLines += flushed
	d.clock.Advance(flushed*d.cost.CLWBPS + (total-flushed)*(d.cost.CLWBPS/10))
}

// SFence makes every pending (CLWB'd or NT-stored) line durable. Media write
// accounting happens here at 256-byte granularity: adjacent lines flushed in
// the same fence epoch coalesce into one media write.
func (d *Device) SFence() {
	d.tick(OpFence)
	d.stats.SFences++
	d.clock.Advance(d.cost.SFencePS + int64(d.pending.Count())*d.cost.SFenceLinePS)
	d.drain()
}

// drain makes every pending line durable: it counts the distinct media
// chunks among them, frees their undo slots and empties the pending set and
// the log.
func (d *Device) drain() {
	var chunks chunkCount
	for _, r := range d.pendingRuns() {
		for l := r.from; l < r.to; l++ {
			chunks.add(l)
			if u := d.undoSlot[l]; u > uint32(len(d.undoSlot)) {
				d.freeSlot(u)
			}
		}
	}
	d.stats.MediaWriteBytes += chunks.bytes()
	d.clearPending()
	d.logTop, d.held = 0, 0
}

// WBINVD writes back and invalidates the entire cache: every dirty line and
// every pending line becomes durable immediately. This is the bulk-flush
// path the checkpoint protocol chooses when the dirty set exceeds the LLC
// size (§3.4.2).
func (d *Device) WBINVD() {
	d.tick(OpFlush)
	d.stats.WBINVDs++
	nDirty := d.dirty.Count()
	d.clock.Advance(d.cost.WBINVDPS + int64(nDirty)*d.cost.CLWBPS/2)
	// Every dirty line joins the pending ones, and all drain as at a fence:
	// one media write per distinct chunk of dirty ∪ pending.
	d.dirty.ForEach(d.flushLine)
	d.dirty.ClearAll()
	d.stats.FlushedLines += int64(nDirty)
	d.drain()
}

// DirtyLineCount returns the number of cache lines currently dirty.
func (d *Device) DirtyLineCount() int { return d.dirty.Count() }

// PendingLineCount returns the number of flushed or NT-stored lines the
// next SFence will drain — the variable part of that fence's cost.
func (d *Device) PendingLineCount() int { return d.pending.Count() }

// CrashWith simulates a power failure under an explicit CrashPolicy: the
// policy decides, line by line, whether each in-flight flush completed and
// whether each dirty line happened to evict. The cache is then lost and the
// CPU view re-reads media. Returns the number of unguaranteed lines that
// persisted.
//
// Lines are visited in ascending order (pending first, then dirty), so a
// deterministic policy — or a seeded one over an identical operation
// history — produces a reproducible crash image (a Go map walk here would
// tie the outcome to map iteration order).
func (d *Device) CrashWith(p CrashPolicy) int {
	persisted := 0
	// In-flight flushes: the losers' undo becomes their media again; the
	// winners are media writes. No slot is freed one by one: the whole pool
	// empties at the end.
	var chunks chunkCount
	for _, r := range d.pendingRuns() {
		for l := r.from; l < r.to; l++ {
			if p.Persist(l, LinePending) {
				persisted++
				chunks.add(l)
			} else {
				d.mediaSlot[l] = d.undoSlot[l]
			}
		}
	}
	d.stats.MediaWriteBytes += chunks.bytes()
	d.clearPending()
	// Dirty lines: the policy's chosen subset evicts to media.
	d.dirty.ForEach(func(l int) {
		if p.Persist(l, LineDirty) {
			d.mediaSlot[l] = 0
			d.stats.MediaWriteBytes += MediaGranularity
			d.stats.EvictedLines++
			persisted++
		}
	})
	d.dirty.ClearAll()
	// The cache is lost: every line whose media still differs reads it back,
	// and the pool is empty again.
	d.eachDiverged(func(l int, m []byte) {
		copy(line(d.working, l), m)
		d.mediaSlot[l] = 0
	})
	d.slotTop, d.nFree, d.logTop, d.zeroRefs, d.held = 0, 0, 0, 0, 0
	return persisted
}

// Crash simulates a power failure in which every line that is dirty or
// pending independently either persists to media or vanishes, decided by
// rng (the classic seeded coin-flip schedule).
func (d *Device) Crash(rng *rand.Rand) int { return d.CrashWith(SeededCrash(rng)) }

// CrashDropAll simulates the crash in which nothing unguaranteed persisted.
func (d *Device) CrashDropAll() { d.CrashWith(DropAll) }

// CrashPersistAll simulates the crash in which every written line persisted.
func (d *Device) CrashPersistAll() { d.CrashWith(PersistAll) }

// CorruptRange injects a media fault: every media byte in [off, off+n) is
// bit-flipped, modelling at-rest corruption (bit rot, a failed media cell,
// a misdirected write). The CPU-visible view of the range is refreshed —
// this is what a restart would read — and any cached dirty content for the
// affected lines is discarded, as the fault model targets quiescent images
// rather than in-flight traffic.
func (d *Device) CorruptRange(off, n int) {
	if n <= 0 {
		return
	}
	d.checkRange(off, n)
	d.touch(off, n)
	for l := off / LineSize; l <= (off+n-1)/LineSize; l++ {
		lo, hi := max(off, l*LineSize), min(off+n, (l+1)*LineSize)
		d.keepUndo(l)
		m := d.ownMedia(l)[lo-l*LineSize : hi-l*LineSize]
		for i := range m {
			m[i] ^= 0xff
		}
		copy(d.working[lo:hi], m)
		if hi-lo == LineSize { // the line reads as its media again
			d.converge(l)
		}
	}
	d.dirty.ClearRange(off/LineSize, (off+n-1)/LineSize+1)
}

// TornWrite injects a torn media write at the device's internal write
// granularity: the 256-byte media chunk containing off receives the current
// cached (working) content for its first cut bytes, while the tail keeps
// the old media content — the state an interrupted media program operation
// can leave behind. The whole chunk then reads back from media (cache
// contents for it are discarded), as after the power failure that tore the
// write. cut must be in [0, MediaGranularity].
func (d *Device) TornWrite(off, cut int) {
	if cut < 0 || cut > MediaGranularity {
		panic(fmt.Sprintf("nvm: torn-write cut %d outside [0,%d]", cut, MediaGranularity))
	}
	chunk := off / MediaGranularity * MediaGranularity
	d.checkRange(chunk, MediaGranularity)
	d.touch(chunk, MediaGranularity)
	for l := chunk / LineSize; l < (chunk+MediaGranularity)/LineSize; l++ {
		k := min(max(chunk+cut-l*LineSize, 0), LineSize)
		d.keepUndo(l)
		copy(line(d.working, l)[k:], d.media(l)[k:])
		d.converge(l)
	}
	d.dirty.ClearRange(chunk/LineSize, (chunk+MediaGranularity)/LineSize)
}

// ChargeHook charges one instrumented write-hook invocation to the clock.
func (d *Device) ChargeHook() { d.clock.Advance(d.cost.HookPS) }

// ChargeLoad charges one small load without moving data (for callers that
// read Working() directly).
func (d *Device) ChargeLoad() {
	d.stats.Loads++
	d.clock.Advance(d.cost.LoadPS)
}

// ChargeNVMLoad charges one small load from NVM-resident memory.
func (d *Device) ChargeNVMLoad() {
	d.stats.Loads++
	d.clock.Advance(d.cost.NVMLoadPS)
}

// ChargePageFault charges one simulated page-protection fault.
func (d *Device) ChargePageFault() {
	d.stats.PageFaults++
	d.clock.Advance(d.cost.PageFaultPS)
}

// ChargeDRAMCopy charges a DRAM-to-DRAM copy of n bytes.
func (d *Device) ChargeDRAMCopy(n int) {
	d.clock.Advance(int64(n) * d.cost.DRAMBytePS)
}

// ChargeNVMRead charges a bulk read of n bytes from NVM media.
func (d *Device) ChargeNVMRead(n int) {
	d.clock.Advance(int64(n) * d.cost.NVMReadBytePS)
}

// WordSize is the widest access one load or store instruction makes. The cost
// model prices an access of up to a word as one instruction and a longer one
// as a copy, by the byte (DESIGN.md §4); Write and the three Charge helpers
// below are the only places that rule is applied.
const WordSize = 16

// Write stores src at off through the cache, priced by the word rule. Store
// and StoreBulk keep their own pricing for callers that name one.
func (d *Device) Write(off int, src []byte) {
	if len(src) <= WordSize {
		d.Store(off, src)
	} else {
		d.StoreBulk(off, src)
	}
}

// ChargeRead charges a read of n bytes of NVM-resident memory that the caller
// takes from Working() directly.
func (d *Device) ChargeRead(n int) {
	if n <= WordSize {
		d.ChargeNVMLoad()
	} else {
		d.ChargeNVMRead(n)
	}
}

// ChargeDRAMRead charges a read of n bytes of DRAM-resident working state.
func (d *Device) ChargeDRAMRead(n int) {
	if n <= WordSize {
		d.ChargeLoad()
	} else {
		d.ChargeDRAMCopy(n)
	}
}

// ChargeDRAMWrite charges a store of n bytes to DRAM-resident working state;
// it touches no device memory, so it counts no Store.
func (d *Device) ChargeDRAMWrite(n int) {
	if n <= WordSize {
		d.clock.Advance(d.cost.StorePS)
	} else {
		d.ChargeDRAMCopy(n)
	}
}

// ChargeHash charges checksum computation over n bytes.
func (d *Device) ChargeHash(n int) {
	d.clock.Advance(int64(n) * d.cost.HashBytePS)
}
