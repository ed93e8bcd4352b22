package nvm

import "sync"

// A device's media, working and undo arrays are one arena of three times its
// size, taken from mapArena and handed back to a free list by Close, so the
// host memory a run costs is what it touched rather than what it declared.
// On unix outside the race detector an arena is an anonymous mapping, off
// the Go heap: untouched pages cost nothing, no collector ever zeroes one
// again, and the garbage collector neither sees nor paces against it
// (arena_mmap.go). Elsewhere it is an ordinary slice (arena_heap.go).

// idle is the free list of closed devices' arenas, keyed by device size.
// Every arena in it reads zero wherever media or working is concerned:
// Close cleared what its device touched before pushing it.
var idle struct {
	sync.Mutex
	bySize map[int][][]byte
}

// takeArena returns a zeroed arena for a device of size bytes: the newest
// idle one of that size or, on a miss, a fresh mapping — after unmapping
// every idle arena, so the free list never holds memory the run has moved
// on from (sizes change between a sweep's systems and experiments).
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
	return mapArena(3 * size)
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
