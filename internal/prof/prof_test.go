package prof

import (
	"os"
	"path/filepath"
	"testing"
)

// TestStart: both profiles land in their files once stop runs, and a bad
// path fails before the run instead of after it, leaving no CPU profile
// running behind.
func TestStart(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	stop, err := Start(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	stop()
	for _, p := range []string{cpu, mem} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Fatalf("%s: %v, want a non-empty profile", p, err)
		}
	}
	bad := filepath.Join(dir, "missing", "x.prof")
	if _, err := Start(bad, ""); err == nil {
		t.Fatal("bad -cpuprofile path accepted")
	}
	if _, err := Start(cpu, bad); err == nil {
		t.Fatal("bad -memprofile path accepted")
	}
	// The failed Start above must have stopped its CPU profile again.
	stop, err = Start(cpu, "")
	if err != nil {
		t.Fatalf("CPU profile left running by a failed Start: %v", err)
	}
	stop()
	if stop, err = Start("", ""); err != nil {
		t.Fatal(err)
	}
	stop()
}
