package nvm

import (
	"sync"
	"unsafe"
)

// A device's memory is one arena, taken from mapArena and handed back to a
// free list by Close, so the host memory a run costs is what it touched
// rather than what it declared. It holds the working array, the only
// full-size image, then the slots that keep a line's media and undo bytes
// while they differ from working (device.go): a per-line index, an undo log
// that NT stores fill and each fence empties, the zero slot that every
// all-zero media or undo shares, and a pool with room for a media and an
// undo slot per line. Pool slots are reused last-in first-out, so the
// pool's resident pages track the peak number of diverged lines whose media
// is not zero, and the log's the most lines one fence epoch NT-stores whose
// media is not zero. The zero slot is never written, so it reads zero for
// the arena's whole life, across every device that reuses it. On unix
// outside the race detector an arena is an anonymous mapping, off the Go
// heap: untouched pages cost nothing, no collector ever zeroes one again,
// and the garbage collector neither sees nor paces against it
// (arena_mmap.go).
// Elsewhere it is an ordinary slice (arena_heap.go). A DRAM region
// (Device.DRAM) is mapped the same way but never pooled: its device's Close
// unmaps it, or FreeDRAM before that.

// arenaLayout returns where the parts of a device's arena begin and the
// arena's length: working; per line a uint32 naming its media slot (0 for
// none), then per line one naming its undo slot; the stack of free slot
// numbers; and the slots, LineSize bytes each: slot 0, never handed out,
// then lines for the undo log, the zero slot, and 2*lines for the pool.
func arenaLayout(size int) (media, undo, free, slots, end int) {
	lines := size / LineSize
	n := 3*lines + 2
	media, undo, free = size, size+4*lines, size+8*lines
	slots = (free + 4*n + LineSize - 1) / LineSize * LineSize
	return media, undo, free, slots, slots + LineSize*n
}

// words views a part of an arena as the uint32s it holds.
func words(b []byte) []uint32 {
	return unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/4)
}

// idle is the free list of closed devices' arenas, keyed by device size.
// Every arena in it reads zero in working and names no media slot: Close
// cleared what its device touched before pushing it. Undo entries, the free
// stack and the slots other than the zero slot are written before they are
// read, so they keep what the last device left.
var idle struct {
	sync.Mutex
	bySize map[int][][]byte
}

// takeArena returns an arena for a device of size bytes whose working array
// and media slot index read zero: the newest idle one of that size or, on a
// miss, a fresh mapping — after unmapping every idle arena, so the free list
// never holds memory the run has moved on from (sizes change between a
// sweep's systems and experiments).
func takeArena(size int) []byte {
	idle.Lock()
	defer idle.Unlock()
	if l := idle.bySize[size]; len(l) > 0 {
		a := l[len(l)-1]
		l[len(l)-1] = nil
		idle.bySize[size] = l[:len(l)-1]
		return a
	}
	unmapIdle()
	_, _, _, _, end := arenaLayout(size)
	return mapArena(end)
}

// unmapIdle empties the free list, unmapping every arena on it. The caller
// holds idle's lock.
func unmapIdle() {
	for sz, l := range idle.bySize {
		for _, a := range l {
			unmapArena(a)
		}
		delete(idle.bySize, sz)
	}
}

// giveArena puts a closed device's cleared arena on the free list.
func giveArena(size int, a []byte) {
	idle.Lock()
	defer idle.Unlock()
	if idle.bySize == nil {
		idle.bySize = make(map[int][][]byte)
	}
	idle.bySize[size] = append(idle.bySize[size], a)
}
