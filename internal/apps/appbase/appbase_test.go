package appbase

import (
	"strings"
	"testing"

	"libcrpm/internal/baselines/nvmnp"
	"libcrpm/internal/core"
	"libcrpm/internal/mpi"
	"libcrpm/internal/nvm"
	"libcrpm/internal/region"
)

func TestNewAndAttach(t *testing.T) {
	b := nvmnp.New(1 << 20)
	s, err := New(b, []int{100, 50})
	if err != nil {
		t.Fatal(err)
	}
	a0, a1 := s.Array(0), s.Array(1)
	if a0.Len() != 100 || a1.Len() != 50 {
		t.Fatalf("lengths %d/%d", a0.Len(), a1.Len())
	}
	a0.Set(7, 3.14)
	a1.Set(49, -1)
	s.SetIter(12)

	s2, err := Attach(b, []int{100, 50})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Iter() != 12 {
		t.Fatalf("iter = %d", s2.Iter())
	}
	if got := s2.Array(0).Get(7); got != 3.14 {
		t.Fatalf("a0[7] = %v", got)
	}
	if got := s2.Array(1).Get(49); got != -1 {
		t.Fatalf("a1[49] = %v", got)
	}
}

func TestAttachValidatesShape(t *testing.T) {
	b := nvmnp.New(1 << 20)
	if _, err := New(b, []int{100}); err != nil {
		t.Fatal(err)
	}
	if _, err := Attach(b, []int{100, 50}); err == nil {
		t.Fatal("attach with wrong array count succeeded")
	}
	if _, err := Attach(b, []int{99}); err == nil {
		t.Fatal("attach with wrong length succeeded")
	}
}

func TestAttachUnformatted(t *testing.T) {
	if _, err := Attach(nvmnp.New(1<<20), []int{10}); err == nil {
		t.Fatal("attach on unformatted heap succeeded")
	}
}

func TestNewRejectsEmpty(t *testing.T) {
	if _, err := New(nvmnp.New(1<<20), nil); err == nil {
		t.Fatal("New with no arrays succeeded")
	}
}

func TestBoundsPanics(t *testing.T) {
	b := nvmnp.New(1 << 20)
	s, err := New(b, []int{10})
	if err != nil {
		t.Fatal(err)
	}
	arr := s.Array(0)
	for _, fn := range []func(){
		func() { arr.Get(10) },
		func() { arr.Set(-1, 0) },
		func() { s.Array(1) },
		func() { s.Len(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("no panic on out-of-range access")
				}
			}()
			fn()
		}()
	}
}

func TestStateBytes(t *testing.T) {
	b := nvmnp.New(1 << 20)
	s, err := New(b, []int{100, 200})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.StateBytes(); got != 24+32+8*300 {
		t.Fatalf("StateBytes = %d", got)
	}
}

func TestSurvivesContainerCrash(t *testing.T) {
	opts := core.Options{Region: region.Config{HeapSize: 256 << 10, SegmentSize: 32 << 10, BlockSize: 256, BackupRatio: 1}}
	l, err := region.NewLayout(opts.Region)
	if err != nil {
		t.Fatal(err)
	}
	dev := nvm.NewDevice(l.DeviceSize())
	c, err := core.NewContainer(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(c, []int{64})
	if err != nil {
		t.Fatal(err)
	}
	s.Array(0).Set(3, 42)
	s.SetIter(5)
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Array(0).Set(3, 99) // uncommitted
	s.SetIter(6)
	dev.CrashDropAll()
	c2, err := core.OpenContainer(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Attach(c2, []int{64})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Iter() != 5 || s2.Array(0).Get(3) != 42 {
		t.Fatalf("recovered iter=%d val=%v, want 5/42", s2.Iter(), s2.Array(0).Get(3))
	}
}

// An unknown system name is an error from both Format and Recover, never a
// libcrpm rank of some default mode; names are the paper's, case and all.
func TestUnknownSystemRejected(t *testing.T) {
	dev := nvm.NewDevice(1 << 16)
	defer dev.Close()
	for _, sys := range []string{"", "none", "libcrpm-buffered", "fti", "InCLL"} {
		if b, err := Format(sys, 1<<20); err == nil || !strings.Contains(err.Error(), "unknown system") {
			t.Errorf("Format(%q) = %v, %v; want an unknown-system error", sys, b, err)
		}
		for _, err := range mpi.NewWorld(1).Run(func(c *mpi.Comm) {
			if b, err := Recover(c, sys, 1<<20, dev); err == nil || !strings.Contains(err.Error(), "unknown system") {
				t.Errorf("Recover(%q) = %v, %v; want an unknown-system error", sys, b, err)
			}
		}) {
			if err != nil {
				t.Errorf("Recover(%q): rank failed: %v", sys, err)
			}
		}
	}
}
