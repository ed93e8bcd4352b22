package lulesh

import (
	"math"
	"testing"

	"libcrpm/internal/apps/appbase"
	"libcrpm/internal/apps/apptest"
	"libcrpm/internal/baselines/nvmnp"
	"libcrpm/internal/ckpt"
	"libcrpm/internal/mpi"
)

func testCfg(rank, ranks int) Config {
	return Config{Edge: 8, NZLocal: 4, NZGlobal: 4 * ranks, ZOffset: rank * 4, Blast: true}
}

func TestBlastSpreads(t *testing.T) {
	w := mpi.NewWorld(2)
	w.Run(func(c *mpi.Comm) {
		cfg := testCfg(c.Rank(), c.Size())
		s, err := New(cfg, c, nvmnp.New(4<<20))
		if err != nil {
			t.Error(err)
			return
		}
		e0Total := s.TotalEnergy()
		if err := s.Run(15, 0, nil); err != nil {
			t.Error(err)
			return
		}
		if s.Time() <= 0 {
			t.Errorf("rank %d: time did not advance", c.Rank())
		}
		// The point spike must have spread: count cells above background.
		e := s.st.Array(arrE)
		hot := 0
		for i := 0; i < e.Len(); i++ {
			v := e.Get(i)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("rank %d: non-finite energy at %d", c.Rank(), i)
				return
			}
			if v > 2*e0 {
				hot++
			}
		}
		total := c.AllreduceU64(uint64(hot), mpi.Sum)
		if c.Rank() == 0 && total < 5 {
			t.Errorf("blast did not spread: %d hot cells", total)
		}
		after := s.TotalEnergy()
		if after <= 0 || after > 2*e0Total {
			t.Errorf("total energy %g outside sanity bounds (started %g)", after, e0Total)
		}
	})
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() float64 {
		var out float64
		w := mpi.NewWorld(2)
		w.Run(func(c *mpi.Comm) {
			s, err := New(testCfg(c.Rank(), c.Size()), c, nvmnp.New(4<<20))
			if err != nil {
				t.Error(err)
				return
			}
			if err := s.Run(10, 0, nil); err != nil {
				t.Error(err)
				return
			}
			te := s.TotalEnergy()
			if c.Rank() == 0 {
				out = te
			}
		})
		return out
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("two identical runs diverged: %g vs %g", a, b)
	}
}

func TestCrashRecoveryEquality(t *testing.T) {
	f := apptest.Factory{
		New: func(c *mpi.Comm, b ckpt.Backend) (appbase.Runner, error) {
			return New(testCfg(c.Rank(), c.Size()), c, b)
		},
		Attach: func(c *mpi.Comm, b ckpt.Backend) (appbase.Runner, error) {
			return Attach(testCfg(c.Rank(), c.Size()), c, b)
		},
		HeapSize: 4 << 20,
	}
	apptest.CrashEquality(t, f, 2, 18, 5, 12)
}

func TestConfigValidation(t *testing.T) {
	w := mpi.NewWorld(1)
	w.Run(func(c *mpi.Comm) {
		if _, err := New(Config{Edge: 2, NZLocal: 1}, c, nvmnp.New(1<<20)); err == nil {
			t.Error("invalid config accepted")
		}
	})
}

// TestBlastSymmetry: the Sedov spike sits at the domain centre; with
// reflective x/y boundaries the energy field must stay mirror-symmetric in
// x and y (the discretization is centrally symmetric, so this holds to
// floating-point exactness).
func TestBlastSymmetry(t *testing.T) {
	w := mpi.NewWorld(1)
	w.Run(func(c *mpi.Comm) {
		cfg := Config{Edge: 9, NZLocal: 9, NZGlobal: 9, ZOffset: 0, Blast: true}
		s, err := New(cfg, c, nvmnp.New(8<<20))
		if err != nil {
			t.Error(err)
			return
		}
		if err := s.Run(12, 0, nil); err != nil {
			t.Error(err)
			return
		}
		e := s.st.Array(arrE)
		n := cfg.Edge
		cx := n / 2
		for z := 0; z < cfg.NZLocal; z++ {
			for y := 0; y < n; y++ {
				for x := 0; x < n; x++ {
					mirrorX := e.Get(s.idx(2*cx-x, y, z))
					if got := e.Get(s.idx(x, y, z)); got != mirrorX {
						t.Errorf("x-mirror broken at (%d,%d,%d): %g vs %g", x, y, z, got, mirrorX)
						return
					}
					mirrorY := e.Get(s.idx(x, 2*cx-y, z))
					if got := e.Get(s.idx(x, y, z)); got != mirrorY {
						t.Errorf("y-mirror broken at (%d,%d,%d): %g vs %g", x, y, z, got, mirrorY)
						return
					}
				}
			}
		}
	})
}
