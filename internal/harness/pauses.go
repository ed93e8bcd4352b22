package harness

import (
	"fmt"

	"libcrpm/internal/workload"
)

// PauseTimes is an extension experiment beyond the paper's tables: the
// checkpoint pause distribution — how long the application is stopped at
// each epoch boundary. Reducing this disturbance is the paper's stated goal
// (§1); the figure it implies but never plots is regenerated here.
func PauseTimes(sc Scale) (Table, error) {
	t := Table{
		Title:  fmt.Sprintf("Extension: checkpoint pause times, unordered_map, balanced, interval %v (%s scale)", sc.Interval, sc.Name),
		Header: []string{"system", "mean pause", "max pause", "pause share %"},
	}
	systems := []string{"Mprotect", "Soft-dirty bit", "Undo-log", "LMC", "libcrpm-Default", "libcrpm-Buffered"}
	runs, err := sweep(systems, func(sys string) (measured, error) {
		return measureSystem(sys, DSHashMap, sc, Geometry{}, 31, workload.Balanced)
	})
	if err != nil {
		return t, err
	}
	for i, sys := range systems {
		m := runs[i]
		t.Rows = append(t.Rows, []string{
			sys,
			fmtDur(m.MeanPause),
			fmtDur(m.MaxPause),
			fmtF(m.PauseShare*100, 1),
		})
		t.trace("pauses/"+sys, m.rec)
	}
	t.Notes = append(t.Notes,
		"pause = simulated time the application is stopped inside one crpm_checkpoint call; libcrpm's differential protocol shrinks exactly this disturbance")
	return t, nil
}
