package hpccg

import (
	"testing"

	"libcrpm/internal/apps/appbase"
	"libcrpm/internal/apps/apptest"
	"libcrpm/internal/baselines/nvmnp"
	"libcrpm/internal/ckpt"
	"libcrpm/internal/mpi"
)

func testCfg() Config { return Config{NX: 6, NY: 6, NZLocal: 4} }

func TestResidualDecreases(t *testing.T) {
	w := mpi.NewWorld(2)
	w.Run(func(c *mpi.Comm) {
		s, err := New(testCfg(), c, nvmnp.New(1<<20))
		if err != nil {
			t.Error(err)
			return
		}
		r0 := s.Residual()
		if err := s.Run(25, 0, nil); err != nil {
			t.Error(err)
			return
		}
		if s.Residual() >= r0 {
			t.Errorf("rank %d: residual %g did not decrease from %g", c.Rank(), s.Residual(), r0)
		}
		if s.Residual() > r0*1e-3 {
			t.Errorf("rank %d: CG barely converged: %g -> %g", c.Rank(), r0, s.Residual())
		}
	})
}

func TestSingleRankMatchesSolvedSystem(t *testing.T) {
	// After convergence, A·x ≈ b: verify via one more matvec.
	w := mpi.NewWorld(1)
	w.Run(func(c *mpi.Comm) {
		s, err := New(Config{NX: 5, NY: 5, NZLocal: 5}, c, nvmnp.New(1<<20))
		if err != nil {
			t.Error(err)
			return
		}
		if err := s.Run(60, 0, nil); err != nil {
			t.Error(err)
			return
		}
		x := s.st.Array(arrX)
		s.matvec(x)
		for i := 0; i < x.Len(); i++ {
			if d := s.ap[i] - 1.0; d > 1e-6 || d < -1e-6 {
				t.Errorf("residual at %d: A·x = %g, want 1", i, s.ap[i])
				return
			}
		}
	})
}

func TestMultiRankMatchesSingleRank(t *testing.T) {
	// The same global grid split across ranks must converge to the same
	// residual (domain decomposition correctness).
	run := func(ranks, nzLocal int) float64 {
		var res float64
		w := mpi.NewWorld(ranks)
		w.Run(func(c *mpi.Comm) {
			s, err := New(Config{NX: 6, NY: 6, NZLocal: nzLocal}, c, nvmnp.New(1<<20))
			if err != nil {
				t.Error(err)
				return
			}
			// Few iterations: the residual must still be far from machine
			// zero so the comparison is meaningful.
			if err := s.Run(5, 0, nil); err != nil {
				t.Error(err)
				return
			}
			if c.Rank() == 0 {
				res = s.Residual()
			}
		})
		return res
	}
	single := run(1, 8)
	multi := run(4, 2)
	if single < 1e-12 {
		t.Fatalf("residual %g already at machine zero; comparison meaningless", single)
	}
	if d := (single - multi) / single; d > 1e-9 || d < -1e-9 {
		t.Fatalf("decomposed residual %g differs from single-rank %g", multi, single)
	}
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
		HeapSize: 1 << 20,
	}
	apptest.CrashEquality(t, f, 2, 20, 5, 13)
}

func TestConfigValidation(t *testing.T) {
	w := mpi.NewWorld(1)
	w.Run(func(c *mpi.Comm) {
		if _, err := New(Config{NX: 1, NY: 1, NZLocal: 0}, c, nvmnp.New(1<<20)); err == nil {
			t.Error("tiny grid accepted")
		}
	})
}
