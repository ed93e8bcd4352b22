//go:build !unix || race

package nvm

// mapArena allocates an arena or a DRAM region on the Go heap. The race
// detector sees no access to a mapping, so -race builds take this path and
// it still checks every device access.
func mapArena(n int) []byte { return make([]byte, n) }

// unmapArena leaves a heap arena or DRAM region to the garbage collector.
func unmapArena([]byte) {}
