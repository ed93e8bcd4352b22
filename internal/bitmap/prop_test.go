package bitmap

import (
	"math/rand"
	"testing"
)

// naive is the bit-at-a-time reference model the word-granular kernels are
// differentially tested against.
type naive struct {
	bits []bool
}

func newNaive(n int) *naive { return &naive{bits: make([]bool, n)} }

func (m *naive) setRange(from, to int) {
	for i := from; i < to; i++ {
		m.bits[i] = true
	}
}

func (m *naive) clearRange(from, to int) {
	for i := from; i < to; i++ {
		m.bits[i] = false
	}
}

func (m *naive) count() int {
	n := 0
	for _, b := range m.bits {
		if b {
			n++
		}
	}
	return n
}

func (m *naive) countRange(from, to int) int {
	n := 0
	for i := from; i < to; i++ {
		if m.bits[i] {
			n++
		}
	}
	return n
}

func (m *naive) nextSetInRange(from, to int) int {
	if from < 0 {
		from = 0
	}
	if to > len(m.bits) {
		to = len(m.bits)
	}
	for i := from; i < to; i++ {
		if m.bits[i] {
			return i
		}
	}
	return -1
}

func (m *naive) runsInRange(from, to int) [][2]int {
	var out [][2]int
	if from < 0 {
		from = 0
	}
	if to > len(m.bits) {
		to = len(m.bits)
	}
	for i := from; i < to; {
		if !m.bits[i] {
			i++
			continue
		}
		j := i
		for j < to && m.bits[j] {
			j++
		}
		out = append(out, [2]int{i, j})
		i = j
	}
	return out
}

// randRange draws a range [from, to] with from <= to <= n, biased toward
// word boundaries so mask edge cases are exercised.
func randRange(rng *rand.Rand, n int) (int, int) {
	pick := func() int {
		switch rng.Intn(4) {
		case 0: // exact word boundary
			return (rng.Intn(n/wordBits+2) * wordBits) % (n + 1)
		case 1: // one off a word boundary
			v := (rng.Intn(n/wordBits+2)*wordBits + 1) % (n + 1)
			return v
		default:
			return rng.Intn(n + 1)
		}
	}
	a, b := pick(), pick()
	if a > b {
		a, b = b, a
	}
	return a, b
}

// TestRangeKernelsMatchNaiveModel drives the word-granular kernels and the
// naive model with the same randomized operation stream and requires
// identical observable state after every step.
func TestRangeKernelsMatchNaiveModel(t *testing.T) {
	for _, n := range []int{1, 7, 63, 64, 65, 127, 128, 200, 1024, 4097} {
		rng := rand.New(rand.NewSource(int64(n)))
		s := New(n)
		m := newNaive(n)
		for step := 0; step < 400; step++ {
			from, to := randRange(rng, n)
			switch rng.Intn(6) {
			case 0:
				s.SetRange(from, to)
				m.setRange(from, to)
			case 1:
				s.ClearRange(from, to)
				m.clearRange(from, to)
			case 2:
				i := rng.Intn(n)
				s.Set(i)
				m.bits[i] = true
			case 3:
				i := rng.Intn(n)
				s.Clear(i)
				m.bits[i] = false
			case 4:
				s.ClearAll()
				m.clearRange(0, n)
			default:
				// query-only step
			}
			if got, want := s.Count(), m.count(); got != want {
				t.Fatalf("n=%d step=%d: Count=%d want %d", n, step, got, want)
			}
			qf, qt := randRange(rng, n)
			if got, want := s.CountRange(qf, qt), m.countRange(qf, qt); got != want {
				t.Fatalf("n=%d step=%d: CountRange(%d,%d)=%d want %d", n, step, qf, qt, got, want)
			}
			if got, want := s.NextSetInRange(qf, qt), m.nextSetInRange(qf, qt); got != want {
				t.Fatalf("n=%d step=%d: NextSetInRange(%d,%d)=%d want %d", n, step, qf, qt, got, want)
			}
			var gotRuns [][2]int
			s.ForEachRunInRange(qf, qt, func(a, b int) { gotRuns = append(gotRuns, [2]int{a, b}) })
			wantRuns := m.runsInRange(qf, qt)
			if len(gotRuns) != len(wantRuns) {
				t.Fatalf("n=%d step=%d: ForEachRunInRange(%d,%d) yielded %v want %v", n, step, qf, qt, gotRuns, wantRuns)
			}
			for k := range gotRuns {
				if gotRuns[k] != wantRuns[k] {
					t.Fatalf("n=%d step=%d: ForEachRunInRange(%d,%d) yielded %v want %v", n, step, qf, qt, gotRuns, wantRuns)
				}
			}
			// NextSet must agree with the bounded variant over the full set.
			if got, want := s.NextSet(qf), m.nextSetInRange(qf, n); got != want {
				t.Fatalf("n=%d step=%d: NextSet(%d)=%d want %d", n, step, qf, got, want)
			}
		}
	}
}

func TestRangeKernelsPanicOutOfBounds(t *testing.T) {
	s := New(100)
	for name, fn := range map[string]func(){
		"SetRange-neg":    func() { s.SetRange(-1, 10) },
		"SetRange-past":   func() { s.SetRange(0, 101) },
		"ClearRange-inv":  func() { s.ClearRange(20, 10) },
		"CountRange-past": func() { s.CountRange(50, 200) },
		"CountRange-inv":  func() { s.CountRange(10, 5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// BenchmarkBitmapRangeOps tracks the word-granular kernels in `make bench`.
func BenchmarkBitmapRangeOps(b *testing.B) {
	const n = 1 << 16
	b.Run("SetRange", func(b *testing.B) {
		s := New(n)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.SetRange(13, n-17)
			s.ClearAll()
		}
	})
	b.Run("ClearRange", func(b *testing.B) {
		s := New(n)
		s.SetRange(0, n)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.ClearRange(13, n-17)
			s.SetRange(13, n-17)
		}
	})
	b.Run("CountRange", func(b *testing.B) {
		s := New(n)
		for i := 0; i < n; i += 3 {
			s.Set(i)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if s.CountRange(13, n-17) == 0 {
				b.Fatal("empty")
			}
		}
	})
	b.Run("NextSetInRange-sparse", func(b *testing.B) {
		s := New(n)
		for i := 0; i < n; i += 1024 {
			s.Set(i)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := s.NextSetInRange(0, n); j >= 0; j = s.NextSetInRange(j+1, n) {
			}
		}
	})
	b.Run("ForEachRunInRange", func(b *testing.B) {
		s := New(n)
		for i := 0; i < n; i += 256 {
			s.SetRange(i, i+64)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.ForEachRunInRange(0, n, func(a, c int) {})
		}
	})
}
