package comd

import (
	"math"
	"testing"

	"libcrpm/internal/apps/appbase"
	"libcrpm/internal/apps/apptest"
	"libcrpm/internal/baselines/nvmnp"
	"libcrpm/internal/ckpt"
	"libcrpm/internal/mpi"
)

func testCfg() Config { return Config{CellsPerSide: 4} }

func TestEnergyConservation(t *testing.T) {
	w := mpi.NewWorld(2)
	w.Run(func(c *mpi.Comm) {
		s, err := New(testCfg(), c, nvmnp.New(4<<20))
		if err != nil {
			t.Error(err)
			return
		}
		e0 := s.TotalEnergy()
		if err := s.Run(50, 0, nil); err != nil {
			t.Error(err)
			return
		}
		e1 := s.TotalEnergy()
		if math.IsNaN(e1) || math.IsInf(e1, 0) {
			t.Errorf("non-finite energy %g", e1)
			return
		}
		// Velocity Verlet conserves energy to integration error.
		drift := math.Abs(e1-e0) / (math.Abs(e0) + 1)
		if c.Rank() == 0 && drift > 0.05 {
			t.Errorf("energy drift %.2f%% over 50 steps (E %g -> %g)", drift*100, e0, e1)
		}
	})
}

func TestAtomsStayInBox(t *testing.T) {
	w := mpi.NewWorld(1)
	w.Run(func(c *mpi.Comm) {
		s, err := New(testCfg(), c, nvmnp.New(4<<20))
		if err != nil {
			t.Error(err)
			return
		}
		if err := s.Run(30, 0, nil); err != nil {
			t.Error(err)
			return
		}
		px := s.st.Array(arrPX)
		py := s.st.Array(arrPY)
		pz := s.st.Array(arrPZ)
		for i := 0; i < s.Atoms(); i++ {
			for _, v := range []float64{px.Get(i), py.Get(i), pz.Get(i)} {
				if v < 0 || v >= s.box {
					t.Errorf("atom %d outside box: %g", i, v)
					return
				}
			}
		}
	})
}

func TestAtomsMove(t *testing.T) {
	w := mpi.NewWorld(1)
	w.Run(func(c *mpi.Comm) {
		s, err := New(testCfg(), c, nvmnp.New(4<<20))
		if err != nil {
			t.Error(err)
			return
		}
		p0 := s.st.Array(arrPX).Get(0)
		if err := s.Run(20, 0, nil); err != nil {
			t.Error(err)
			return
		}
		if s.st.Array(arrPX).Get(0) == p0 {
			t.Error("atom 0 never moved")
		}
	})
}

func TestCrashRecoveryEquality(t *testing.T) {
	cfg := testCfg()
	f := apptest.Factory{
		New: func(c *mpi.Comm, b ckpt.Backend) (appbase.Runner, error) {
			return New(cfg, c, b)
		},
		Attach: func(c *mpi.Comm, b ckpt.Backend) (appbase.Runner, error) {
			return Attach(cfg, c, b)
		},
		HeapSize: 4 << 20,
	}
	apptest.CrashEquality(t, f, 2, 16, 5, 9)
}

func TestConfigValidation(t *testing.T) {
	w := mpi.NewWorld(1)
	w.Run(func(c *mpi.Comm) {
		if _, err := New(Config{CellsPerSide: 1}, c, nvmnp.New(1<<20)); err == nil {
			t.Error("tiny box accepted")
		}
	})
}
