package harness

import (
	"fmt"
	"sync/atomic"

	"libcrpm/internal/sched"
)

// parallelism is the harness-wide worker bound for experiment cells
// (0 = GOMAXPROCS). Every figure fans its independent cells — each with its
// own simulated device — out over a sched pool with ordered reduction, so
// the printed tables are byte-identical at any setting.
var parallelism atomic.Int32

// progress is the optional cell-completion hook the CLIs install
// (stderr meters); it must tolerate concurrent figures' cells interleaving.
var progress atomic.Pointer[func(done, total int)]

// SetParallelism bounds the number of experiment cells simulated
// concurrently. 0 restores the default (GOMAXPROCS); 1 is the serial path.
func SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	parallelism.Store(int32(n))
}

// Parallelism reports the current bound (0 = GOMAXPROCS).
func Parallelism() int { return int(parallelism.Load()) }

// SetProgress installs a hook called after every completed experiment cell
// with (done, total) for the figure currently being swept. nil removes it.
func SetProgress(fn func(done, total int)) {
	if fn == nil {
		progress.Store(nil)
		return
	}
	progress.Store(&fn)
}

// sweep runs cell on every item as independent cells over pool() and returns
// the results in item order. An error is the lowest failing item's, as in a
// serial loop, labelled with the item.
func sweep[I, T any](items []I, cell func(I) (T, error)) ([]T, error) {
	return sched.MapErr(len(items), pool(), func(i int) (T, error) {
		v, err := cell(items[i])
		if err != nil {
			err = fmt.Errorf("%v: %w", items[i], err)
		}
		return v, err
	})
}

// grid is sweep over rows x cols, row-major: cell(rows[r], cols[c]) comes back
// at [r][c]. It is the shape of the paper's evaluation — systems down, a swept
// parameter across, one measured run per cell.
func grid[R, C, T any](rows []R, cols []C, cell func(R, C) (T, error)) ([][]T, error) {
	flat, err := sched.MapErr(len(rows)*len(cols), pool(), func(i int) (T, error) {
		r, c := rows[i/len(cols)], cols[i%len(cols)]
		v, err := cell(r, c)
		if err != nil {
			err = fmt.Errorf("%v/%v: %w", r, c, err)
		}
		return v, err
	})
	out := make([][]T, len(rows))
	for r := range out {
		out[r] = flat[r*len(cols) : (r+1)*len(cols)]
	}
	return out, err
}

// addRows lays a grid out: one row per name — the name, then show(cell) for
// every column.
func addRows[T any](t *Table, names []string, cells [][]T, show func(T) string) {
	for r, name := range names {
		row := []string{name}
		for _, c := range cells[r] {
			row = append(row, show(c))
		}
		t.Rows = append(t.Rows, row)
	}
}

// pool builds the sched options every figure sweep uses.
func pool() sched.Options {
	opt := sched.Options{Workers: Parallelism()}
	if p := progress.Load(); p != nil {
		opt.Progress = *p
	}
	return opt
}
