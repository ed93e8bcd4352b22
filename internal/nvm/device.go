package nvm

import (
	"fmt"
	"math/rand"

	"libcrpm/internal/bitmap"
)

// Device is a simulated NVM DIMM plus the volatile CPU cache in front of it.
//
// Two byte arrays model the persistence domain boundary: working is what the
// CPU observes (cache contents merged over media), media is what survives a
// crash. Stores update working and mark the containing cache lines dirty;
// CLWB + SFence (or WBINVD, or spontaneous eviction) move line contents into
// media. Crash makes every not-yet-guaranteed line independently persist or
// vanish, which is the adversarial model the paper's failure-atomicity
// argument must survive.
type Device struct {
	size    int
	media   []byte
	working []byte

	// dirty marks cache lines written but not yet flushed.
	dirty *bitmap.Set
	// pending marks lines flushed (CLWB/NT) since the last fence. At a
	// crash each pending line may be rolled back to its undo-arena content,
	// modelling an in-flight flush that never reached the media.
	pending *bitmap.Set
	// undo is a flat arena holding, for every pending line l, the media
	// content from before l's first unfenced overwrite at
	// undo[l*LineSize:(l+1)*LineSize]. It grows geometrically up to the
	// device size and is never shrunk, so the steady-state flush path
	// performs no allocation. Bytes for non-pending lines are stale.
	undo []byte
	// pendLo/pendHi bound the pending lines (inclusive; pendHi < 0 means
	// none), so per-fence accounting walks only the bitmap words that can
	// hold pending bits instead of the whole device.
	pendLo, pendHi int
	// crashSkip is preallocated scratch marking, during Crash, the pending
	// lines that were rolled back (and so must not be counted as media
	// writes by accountPending).
	crashSkip *bitmap.Set

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

// NewDevice creates a device of the given size in bytes (rounded up to a
// whole number of cache lines) with zeroed media.
func NewDevice(size int, opts ...Option) *Device {
	if size <= 0 {
		panic("nvm: non-positive device size")
	}
	size = (size + LineSize - 1) / LineSize * LineSize
	d := &Device{
		size:      size,
		media:     make([]byte, size),
		working:   make([]byte, size),
		dirty:     bitmap.New(size / LineSize),
		pending:   bitmap.New(size / LineSize),
		crashSkip: bitmap.New(size / LineSize),
		clock:     NewClock(),
		cost:      currentDefaultCostModel(),
		failAfter: -1,
	}
	d.pendLo, d.pendHi = size/LineSize, -1
	for _, o := range opts {
		o(d)
	}
	return d
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
	out := make([]byte, d.size)
	copy(out, d.media)
	return out
}

func (d *Device) checkRange(off, n int) {
	if off < 0 || n < 0 || off+n > d.size {
		panic(fmt.Sprintf("nvm: access [%d,%d) outside device of %d bytes", off, off+n, d.size))
	}
}

func (d *Device) markDirty(off, n int) {
	first, last := off/LineSize, (off+n-1)/LineSize
	d.dirty.SetRange(first, last+1)
	if d.evictProb > 0 && d.evictRng.Float64() < d.evictProb {
		d.evictLine(first)
	}
}

// ensureUndo grows the undo arena (geometrically, capped at the device size)
// until it covers line l. Steady state performs no allocation. Past half the
// device the next doubling is the cap anyway, so the arena takes the whole
// device at once: a doubling that lands just short of a size that is not a
// power of two would otherwise be followed by one more growth, and a copy of
// everything, for the last few lines.
func (d *Device) ensureUndo(l int) {
	need := (l + 1) * LineSize
	if need <= len(d.undo) {
		return
	}
	newLen := len(d.undo) * 2
	if newLen < 64*LineSize {
		newLen = 64 * LineSize
	}
	for newLen < need {
		newLen *= 2
	}
	if newLen > d.size/2 {
		newLen = d.size
	}
	grown := make([]byte, newLen)
	copy(grown, d.undo)
	d.undo = grown
}

// markPending records line l as flushed-but-unfenced, snapshotting its
// pre-flush media content into the undo arena on the first unfenced flush.
func (d *Device) markPending(l int) {
	if d.pending.Set(l) {
		if l < d.pendLo {
			d.pendLo = l
		}
		if l > d.pendHi {
			d.pendHi = l
		}
		d.ensureUndo(l)
		base := l * LineSize
		copy(d.undo[base:base+LineSize], d.media[base:base+LineSize])
	}
}

// clearPending empties the pending set, touching only the bitmap words
// inside the current pending window.
func (d *Device) clearPending() {
	if d.pendHi >= 0 {
		d.pending.ClearRange(d.pendLo, d.pendHi+1)
	}
	d.pendLo, d.pendHi = d.size/LineSize, -1
}

// evictLine spontaneously writes one dirty line back to media, as a real
// cache may do at any moment.
func (d *Device) evictLine(l int) {
	if !d.dirty.Test(l) {
		return
	}
	base := l * LineSize
	copy(d.media[base:base+LineSize], d.working[base:base+LineSize])
	d.dirty.Clear(l)
	d.stats.EvictedLines++
	d.stats.FlushedLines++
	d.stats.MediaWriteBytes += MediaGranularity
}

// Store writes a small value (typically <= 8 bytes) through the cache.
func (d *Device) Store(off int, src []byte) {
	d.tick(OpStore)
	d.checkRange(off, len(src))
	copy(d.working[off:], src)
	d.markDirty(off, len(src))
	d.stats.Stores++
	d.clock.Advance(d.cost.StorePS)
}

// StoreBulk writes a larger buffer through the cache, charged at DRAM-copy
// bandwidth (the data lands in cache, not yet in media).
func (d *Device) StoreBulk(off int, src []byte) {
	d.tick(OpStore)
	if len(src) == 0 {
		return
	}
	d.checkRange(off, len(src))
	copy(d.working[off:], src)
	d.markDirty(off, len(src))
	d.stats.Stores++
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
func (d *Device) NTStore(off int, src []byte) {
	d.tick(OpStore)
	n := len(src)
	if n == 0 {
		return
	}
	d.checkRange(off, n)
	first, last := off/LineSize, (off+n-1)/LineSize
	if d.pending.CountRange(first, last+1) == 0 {
		// No line in the range is pending yet: snapshot the whole span into
		// the undo arena and mark it pending with two word-granular range
		// ops instead of a per-line loop.
		d.ensureUndo(last)
		copy(d.undo[first*LineSize:(last+1)*LineSize], d.media[first*LineSize:(last+1)*LineSize])
		d.pending.SetRange(first, last+1)
		if first < d.pendLo {
			d.pendLo = first
		}
		if last > d.pendHi {
			d.pendHi = last
		}
		// Lines fully inside the write no longer have newer cached data.
		if fc0, fc1 := (off+LineSize-1)/LineSize, (off+n)/LineSize; fc1 > fc0 {
			d.dirty.ClearRange(fc0, fc1)
		}
	} else {
		for l := first; l <= last; l++ {
			d.markPending(l)
			// A line fully inside the write no longer has newer cached data.
			if l*LineSize >= off && (l+1)*LineSize <= off+n {
				d.dirty.Clear(l)
			}
		}
	}
	copy(d.working[off:], src)
	copy(d.media[off:], src)
	d.stats.NTStoreBytes += int64(n)
	// Write-combining fills whole lines: a small NT store still moves a
	// full cache line to the media.
	chargeBytes := int64(last-first+1) * LineSize
	d.clock.Advance(chargeBytes * d.cost.NVMWriteBytePS)
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
	d.markPending(l)
	base := l * LineSize
	copy(d.media[base:base+LineSize], d.working[base:base+LineSize])
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
		d.markPending(l)
		base := l * LineSize
		copy(d.media[base:base+LineSize], d.working[base:base+LineSize])
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
	d.accountPending(nil)
}

// accountPending counts media writes for pending lines and clears the
// pending set. If skip is non-nil, lines in skip were rolled back at a crash
// and are not counted. Pending lines are visited in ascending order, so
// lines sharing a media chunk are adjacent and distinct chunks are counted
// with a transition test instead of a per-fence map.
func (d *Device) accountPending(skip *bitmap.Set) {
	if !d.pending.Any() {
		return
	}
	chunks, lastChunk := int64(0), -1
	d.pending.ForEachInRange(d.pendLo, d.pendHi+1, func(l int) {
		if skip != nil && skip.Test(l) {
			return
		}
		if c := l * LineSize / MediaGranularity; c != lastChunk {
			chunks++
			lastChunk = c
		}
	})
	d.stats.MediaWriteBytes += chunks * MediaGranularity
	d.clearPending()
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
	// Distinct media chunks across dirty ∪ pending, via an ascending
	// two-pointer merge of the two bitmaps (no per-call map).
	chunks, lastChunk := int64(0), -1
	dl, pl := d.dirty.NextSet(0), d.pending.NextSet(0)
	for dl >= 0 || pl >= 0 {
		var l int
		switch {
		case pl < 0 || (dl >= 0 && dl <= pl):
			l = dl
			if dl == pl {
				pl = d.pending.NextSet(pl + 1)
			}
			dl = d.dirty.NextSet(dl + 1)
		default:
			l = pl
			pl = d.pending.NextSet(pl + 1)
		}
		if c := l * LineSize / MediaGranularity; c != lastChunk {
			chunks++
			lastChunk = c
		}
	}
	d.dirty.ForEach(func(l int) {
		base := l * LineSize
		copy(d.media[base:base+LineSize], d.working[base:base+LineSize])
	})
	d.stats.FlushedLines += int64(nDirty)
	d.dirty.ClearAll()
	d.clearPending()
	d.stats.MediaWriteBytes += chunks * MediaGranularity
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
	// In-flight flushes: roll back the losers to their pre-flush media
	// content.
	d.crashSkip.ClearAll()
	d.pending.ForEachInRange(d.pendLo, d.pendHi+1, func(l int) {
		if p.Persist(l, LinePending) {
			persisted++
		} else {
			base := l * LineSize
			copy(d.media[base:base+LineSize], d.undo[base:base+LineSize])
			d.crashSkip.Set(l)
		}
	})
	d.accountPending(d.crashSkip)
	// Dirty lines: the policy's chosen subset evicts to media.
	d.dirty.ForEach(func(l int) {
		if p.Persist(l, LineDirty) {
			base := l * LineSize
			copy(d.media[base:base+LineSize], d.working[base:base+LineSize])
			d.stats.MediaWriteBytes += MediaGranularity
			d.stats.EvictedLines++
			persisted++
		}
	})
	d.dirty.ClearAll()
	copy(d.working, d.media)
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
	for i := off; i < off+n; i++ {
		d.media[i] ^= 0xff
	}
	copy(d.working[off:off+n], d.media[off:off+n])
	first, last := off/LineSize, (off+n-1)/LineSize
	d.dirty.ClearRange(first, last+1)
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
	copy(d.media[chunk:chunk+cut], d.working[chunk:chunk+cut])
	copy(d.working[chunk:chunk+MediaGranularity], d.media[chunk:chunk+MediaGranularity])
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
