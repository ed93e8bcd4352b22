// Package dali implements a simplified Dalí-style periodically persistent
// hash map (Nawab et al., DISC 2017), the data-structure baseline of the
// paper's Figure 7. Dalí achieves low-cost persistence by never flushing
// during an operation: updates prepend versioned entries to bucket chains
// through the cache, and a periodic epoch persist flushes all dirty buckets
// and newly allocated entries with two fences total, then advances the
// committed epoch. Recovery discards bucket heads tagged with the crashed
// epoch.
//
// Simplifications relative to the original (documented in DESIGN.md): three
// head slots per bucket provide the version window; superseded entries are
// not garbage-collected (the arena is sized for the run); deletion is not
// implemented (the paper's workloads use insert, update, and get only).
package dali

import (
	"encoding/binary"
	"errors"
	"fmt"

	"libcrpm/internal/bitmap"
	"libcrpm/internal/nvm"
	"libcrpm/internal/pds"
)

// Map implements pds.KV (with documented Delete/Scan limitations).
var _ pds.KV = (*Map)(nil)

// Magic identifies a formatted Dalí map.
const Magic uint64 = 0x4352504d44414c49 // "CRPMDALI"

const (
	offMagic     = 0
	offNBuckets  = 8
	offCommitted = 16
	offBump      = 24
	metaSize     = 4096

	bucketSize = 64 // three 16-byte slots + padding, one cache line
	slotCount  = 3
	entrySize  = 32 // key, value, next, epoch
)

// ErrArenaFull is returned when the entry arena is exhausted.
var ErrArenaFull = errors.New("dali: entry arena exhausted")

// Map is one Dalí hash map on its own simulated device.
type Map struct {
	dev *nvm.Device

	nBuckets  int
	bucketOff int
	arenaOff  int
	arenaCap  int

	// Volatile state, rebuilt at recovery.
	bump           int // next free entry offset (device-relative)
	epochStartBump int // arena watermark at the start of the epoch
	dirtyBuckets   *bitmap.Set
	committedCache uint64
	lenCache       int
	// freeList holds entry offsets reclaimed by version GC. It is volatile;
	// entries freed before a crash leak until the arena is reformatted
	// (real Dalí compacts; documented simplification).
	freeList []int
	// dirtyEntries are old-arena entry offsets rewritten this epoch (GC
	// unlink targets and reused free-list entries); they lie below the
	// epoch watermark, so the bulk arena flush misses them and they must
	// be flushed individually at persist time.
	dirtyEntries []int
}

// Config sizes the map.
type Config struct {
	// Buckets is the hash bucket count (fixed; no resizing, as the paper
	// sizes load factors to avoid it).
	Buckets int
	// Capacity is the maximum number of entries the arena can hold
	// (including superseded versions, which are not collected).
	Capacity int
}

// New formats a fresh map on its own device.
func New(cfg Config) (*Map, error) {
	if cfg.Buckets <= 0 || cfg.Capacity <= 0 {
		return nil, errors.New("dali: Buckets and Capacity must be positive")
	}
	m := layout(cfg)
	m.dev = nvm.NewDevice(m.deviceSize())
	var b8 [8]byte
	binary.LittleEndian.PutUint64(b8[:], Magic)
	m.dev.Store(offMagic, b8[:])
	binary.LittleEndian.PutUint64(b8[:], uint64(cfg.Buckets))
	m.dev.Store(offNBuckets, b8[:])
	binary.LittleEndian.PutUint64(b8[:], 0)
	m.dev.Store(offCommitted, b8[:])
	binary.LittleEndian.PutUint64(b8[:], uint64(m.arenaOff))
	m.dev.Store(offBump, b8[:])
	m.dev.FlushRange(0, 32)
	m.dev.SFence()
	m.bump = m.arenaOff
	m.epochStartBump = m.bump
	return m, nil
}

// Open attaches to an existing device after a crash and recovers.
func Open(cfg Config, dev *nvm.Device) (*Map, error) {
	m := layout(cfg)
	if dev.Size() < m.deviceSize() {
		return nil, errors.New("dali: device too small")
	}
	m.dev = dev
	w := dev.Working()
	if got := binary.LittleEndian.Uint64(w[offMagic:]); got != Magic {
		return nil, fmt.Errorf("dali: bad magic %#x", got)
	}
	if got := int(binary.LittleEndian.Uint64(w[offNBuckets:])); got != m.nBuckets {
		return nil, fmt.Errorf("dali: bucket count mismatch: %d vs %d", got, m.nBuckets)
	}
	if err := m.Recover(); err != nil {
		return nil, err
	}
	return m, nil
}

func layout(cfg Config) *Map {
	m := &Map{
		nBuckets:     cfg.Buckets,
		bucketOff:    metaSize,
		dirtyBuckets: bitmap.New(cfg.Buckets),
	}
	m.arenaOff = metaSize + cfg.Buckets*bucketSize
	m.arenaCap = cfg.Capacity * entrySize
	return m
}

func (m *Map) deviceSize() int { return m.arenaOff + m.arenaCap }

// Device returns the underlying simulated device (for stats and the clock).
func (m *Map) Device() *nvm.Device { return m.dev }

// Name identifies the system in experiment output.
func (m *Map) Name() string { return "Dali" }

// Delete implements pds.KV but is unsupported: Dalí's versioned bucket
// chains have no tombstone format in this simplified baseline (the paper's
// workloads use insert, update, and get only), so Delete always returns
// false and leaves the map unchanged. Workloads that exercise deletes must
// run on the libcrpm-backed structures.
func (m *Map) Delete(key uint64) bool { return false }

// Scan implements pds.KV but is unsupported: Dalí buckets order entries by
// version, not by key, and the baseline keeps no ordered index. Scan always
// returns nil; ordered range queries belong on the libcrpm-backed RBMap.
func (m *Map) Scan(start uint64, n int) []pds.Pair { return nil }

// SupportsOp implements pds.OpSupport: Delete and Scan are the documented
// no-ops above and report a typed pds.ErrUnsupportedOp so callers can
// route around them instead of misreading false/nil results.
func (m *Map) SupportsOp(op pds.Op) error {
	switch op {
	case pds.OpDelete, pds.OpScan:
		return fmt.Errorf("dali: %v: %w", op, pds.ErrUnsupportedOp)
	}
	return nil
}

// Len returns the number of live keys.
func (m *Map) Len() int { return m.lenCache }

func (m *Map) committed() uint64 {
	return binary.LittleEndian.Uint64(m.dev.Working()[offCommitted:])
}

// slot reads bucket b's slot s: (epoch, head), charging one NVM load.
func (m *Map) slot(b, s int) (uint64, uint64) {
	off := m.bucketOff + b*bucketSize + s*16
	m.dev.ChargeNVMLoad()
	w := m.dev.Working()
	return binary.LittleEndian.Uint64(w[off:]), binary.LittleEndian.Uint64(w[off+8:])
}

func (m *Map) setSlot(b, s int, epoch, head uint64) {
	off := m.bucketOff + b*bucketSize + s*16
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], epoch)
	binary.LittleEndian.PutUint64(buf[8:], head)
	m.dev.Store(off, buf[:])
}

// visibleHead returns the newest head no newer than maxEpoch.
func (m *Map) visibleHead(b int, maxEpoch uint64) uint64 {
	var bestEpoch, bestHead uint64
	for s := 0; s < slotCount; s++ {
		e, h := m.slot(b, s)
		if e != 0 && e <= maxEpoch && e >= bestEpoch {
			bestEpoch, bestHead = e, h
		}
	}
	return bestHead
}

func hashKey(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}

// Get looks a key up, observing the newest (possibly uncommitted) version.
func (m *Map) Get(key uint64) (uint64, bool) {
	b := int(hashKey(key) % uint64(m.nBuckets))
	cur := m.committedCache + 1
	e := m.visibleHead(b, cur)
	w := m.dev.Working()
	for e != 0 {
		m.dev.ChargeNVMLoad() // key
		k := binary.LittleEndian.Uint64(w[int(e):])
		if k == key {
			m.dev.ChargeNVMLoad() // value
			return binary.LittleEndian.Uint64(w[int(e)+8:]), true
		}
		m.dev.ChargeNVMLoad() // next
		e = binary.LittleEndian.Uint64(w[int(e)+16:])
	}
	return 0, false
}

// Put inserts or updates a key. No fence is issued; persistence happens at
// the next EpochPersist.
func (m *Map) Put(key, value uint64) error {
	b := int(hashKey(key) % uint64(m.nBuckets))
	cur := m.committedCache + 1
	head := m.visibleHead(b, cur)

	// If this epoch already wrote this key, update that entry in place —
	// it is invisible to recovery until commit anyway.
	w := m.dev.Working()
	existed := false
	for e := head; e != 0; {
		m.dev.ChargeNVMLoad() // key
		m.dev.ChargeNVMLoad() // next
		k := binary.LittleEndian.Uint64(w[int(e):])
		if k == key {
			existed = true
			m.dev.ChargeNVMLoad() // epoch tag
			if binary.LittleEndian.Uint64(w[int(e)+24:]) == cur {
				var vb [8]byte
				binary.LittleEndian.PutUint64(vb[:], value)
				m.dev.Store(int(e)+8, vb[:])
				m.dirtyBuckets.Set(b)
				return nil
			}
			break
		}
		e = binary.LittleEndian.Uint64(w[int(e)+16:])
	}

	// Prepend a fresh version, reusing a reclaimed entry when available.
	var off int
	if n := len(m.freeList); n > 0 {
		off = m.freeList[n-1]
		m.freeList = m.freeList[:n-1]
		m.dirtyEntries = append(m.dirtyEntries, off)
	} else {
		if m.bump+entrySize > m.arenaOff+m.arenaCap {
			return ErrArenaFull
		}
		off = m.bump
		m.bump += entrySize
	}
	var ent [32]byte
	binary.LittleEndian.PutUint64(ent[0:], key)
	binary.LittleEndian.PutUint64(ent[8:], value)
	binary.LittleEndian.PutUint64(ent[16:], head)
	binary.LittleEndian.PutUint64(ent[24:], cur)
	m.dev.Store(off, ent[:8])
	m.dev.Store(off+8, ent[8:16])
	m.dev.Store(off+16, ent[16:24])
	m.dev.Store(off+24, ent[24:32])

	// Install as the current-epoch head: reuse the current epoch's slot if
	// one exists; otherwise rotate out the oldest slot. Free slots (epoch
	// 0) are oldest of all; the visible committed head is never the strict
	// minimum (epochs are unique per bucket), so it is never displaced.
	chosen := -1
	for s := 0; s < slotCount; s++ {
		if e, _ := m.slot(b, s); e == cur {
			chosen = s
			break
		}
	}
	if chosen == -1 {
		oldest := ^uint64(0)
		for s := 0; s < slotCount; s++ {
			e, _ := m.slot(b, s)
			if e != 0 && e == m.committedCache {
				continue // belt and braces: never displace the committed head
			}
			if e < oldest {
				oldest, chosen = e, s
			}
		}
	}
	m.setSlot(b, chosen, cur, uint64(off))
	m.dirtyBuckets.Set(b)
	if !existed {
		m.lenCache++
	}
	return nil
}

// EpochPersist is Dalí's periodic persistence point: flush every dirty
// bucket line and the entries allocated this epoch, fence, then durably
// advance the committed epoch and arena watermark — two fences total,
// regardless of the number of operations in the epoch.
func (m *Map) EpochPersist() error {
	clock := m.dev.Clock()
	prev := clock.SetCategory(nvm.CatCheckpoint)
	defer clock.SetCategory(prev)

	// Version maintenance (Dalí's GC): unlink chain entries superseded by a
	// committed newer version of the same key. This walk over every dirty
	// bucket is part of Dalí's periodic-persistence cost.
	for b := m.dirtyBuckets.NextSet(0); b >= 0; b = m.dirtyBuckets.NextSet(b + 1) {
		m.gcBucket(b)
	}
	for b := m.dirtyBuckets.NextSet(0); b >= 0; b = m.dirtyBuckets.NextSet(b + 1) {
		m.dev.FlushRange(m.bucketOff+b*bucketSize, bucketSize)
	}
	if m.bump > m.epochStartBump {
		m.dev.FlushRange(m.epochStartBump, m.bump-m.epochStartBump)
	}
	for _, off := range m.dirtyEntries {
		m.dev.FlushRange(off, entrySize)
	}
	m.dirtyEntries = m.dirtyEntries[:0]
	m.dev.SFence()
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], m.committedCache+1)
	binary.LittleEndian.PutUint64(buf[8:], uint64(m.bump))
	m.dev.Store(offCommitted, buf[:])
	m.dev.FlushRange(offCommitted, 16)
	m.dev.SFence()
	m.committedCache++
	m.epochStartBump = m.bump
	m.dirtyBuckets.ClearAll()
	return nil
}

// gcBucket unlinks entries of bucket b that are superseded by a newer
// same-key version already committed (epoch <= committed), so every
// recoverable view — the current epoch and the previous committed one —
// still observes the newer version. Reclaimed entries feed the free list.
func (m *Map) gcBucket(b int) {
	cur := m.committedCache + 1
	head := m.visibleHead(b, cur)
	w := m.dev.Working()
	seenCommitted := map[uint64]bool{}
	prev := 0
	for e := int(head); e != 0; {
		m.dev.ChargeNVMLoad() // key
		m.dev.ChargeNVMLoad() // next
		m.dev.ChargeNVMLoad() // epoch
		k := binary.LittleEndian.Uint64(w[e:])
		next := int(binary.LittleEndian.Uint64(w[e+16:]))
		epoch := binary.LittleEndian.Uint64(w[e+24:])
		if seenCommitted[k] && prev != 0 {
			// A newer committed version shadows this entry in every view
			// that can still be recovered: unlink.
			var nb [8]byte
			binary.LittleEndian.PutUint64(nb[:], uint64(next))
			m.dev.Store(prev+16, nb[:])
			m.dirtyEntries = append(m.dirtyEntries, prev)
			m.freeList = append(m.freeList, e)
			e = next
			continue
		}
		if epoch <= cur-1 {
			seenCommitted[k] = true
		}
		prev = e
		e = next
	}
}

// Recover rebuilds the map after a crash: bucket slots tagged with the
// crashed epoch are discarded, the arena watermark rolls back to the
// committed bump, and the live key count is recomputed.
func (m *Map) Recover() error {
	clock := m.dev.Clock()
	prev := clock.SetCategory(nvm.CatRecovery)
	defer clock.SetCategory(prev)

	m.committedCache = m.committed()
	m.bump = int(binary.LittleEndian.Uint64(m.dev.Working()[offBump:]))
	if m.bump == 0 {
		m.bump = m.arenaOff
	}
	m.epochStartBump = m.bump
	m.dirtyBuckets.ClearAll()
	m.freeList = nil
	m.dirtyEntries = nil

	// Scrub slots from the crashed epoch.
	for b := 0; b < m.nBuckets; b++ {
		changed := false
		for s := 0; s < slotCount; s++ {
			e, h := m.slot(b, s)
			if e > m.committedCache || int(h) >= m.bump && h != 0 {
				m.setSlot(b, s, 0, 0)
				changed = true
			}
		}
		if changed {
			m.dev.FlushRange(m.bucketOff+b*bucketSize, bucketSize)
		}
	}
	m.dev.SFence()

	// Recount live keys from committed chains.
	m.lenCache = 0
	seen := make(map[uint64]bool)
	w := m.dev.Working()
	for b := 0; b < m.nBuckets; b++ {
		e := m.visibleHead(b, m.committedCache)
		for e != 0 {
			k := binary.LittleEndian.Uint64(w[int(e):])
			if !seen[k] {
				seen[k] = true
				m.lenCache++
			}
			e = binary.LittleEndian.Uint64(w[int(e)+16:])
		}
	}
	return nil
}
