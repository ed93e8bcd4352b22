//go:build unix && !race

package nvm

import (
	"fmt"
	"syscall"
)

// mapArena maps n bytes of anonymous private memory, for an arena or a DRAM
// region: zero, and resident only where written.
func mapArena(n int) []byte {
	a, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("nvm: mapping %d bytes: %v", n, err))
	}
	return a
}

// unmapArena returns a mapping to the system; any slice still pointing into
// it faults on its next access.
func unmapArena(a []byte) {
	if err := syscall.Munmap(a); err != nil {
		panic(fmt.Sprintf("nvm: unmapping %d bytes: %v", len(a), err))
	}
}
