// Package prof is the CLIs' shared -cpuprofile/-memprofile plumbing.
package prof

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins a CPU profile into cpuPath and arranges for a heap profile
// of the live objects to be written to memPath; either may be empty. Both
// files are created eagerly, so a bad path fails before the run rather
// than after it. The returned stop function finishes both profiles and
// must run before the process exits.
func Start(cpuPath, memPath string) (stop func(), err error) {
	var cpu, mem *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	if memPath != "" {
		if mem, err = os.Create(memPath); err != nil {
			if cpu != nil {
				pprof.StopCPUProfile()
				cpu.Close()
			}
			return nil, fmt.Errorf("memprofile: %w", err)
		}
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			cpu.Close()
		}
		if mem != nil {
			runtime.GC() // report live objects, not transient garbage
			if err := pprof.WriteHeapProfile(mem); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
			mem.Close()
		}
	}, nil
}
