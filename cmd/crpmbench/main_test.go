package main

import (
	"errors"
	"strings"
	"testing"

	"libcrpm/internal/harness"
)

func TestExperimentRegistry(t *testing.T) {
	exps := experiments()
	if len(exps) < 11 {
		t.Fatalf("only %d experiments registered", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if e.name == "" || e.desc == "" || len(e.figs) == 0 {
			t.Fatalf("incomplete experiment %+v", e)
		}
		if e.name != strings.ToLower(e.name) {
			t.Fatalf("experiment name %q not lower case", e.name)
		}
		if seen[e.name] {
			t.Fatalf("duplicate experiment %q", e.name)
		}
		seen[e.name] = true
	}
	for _, want := range []string{"fig1", "fig7", "fig8", "fig9", "fig10a", "fig10b", "table1a", "table1b", "recovery", "storage", "ablations"} {
		if !seen[want] {
			t.Fatalf("experiment %q missing", want)
		}
	}
}

// TestExperimentRunsItsFigures pins the registry's one runner: an experiment's
// tables come back in the order its figures are listed — bothKinds' the
// unordered_map first, then the map — and the first error ends the run.
func TestExperimentRunsItsFigures(t *testing.T) {
	titled := func(sc harness.Scale, kind harness.DSKind) (harness.Table, error) {
		return harness.Table{Title: sc.Name + "/" + string(kind)}, nil
	}
	tabs, err := experiment{figs: bothKinds(titled)}.run(harness.SmallScale())
	if err != nil || len(tabs) != 2 || tabs[0].Title != "small/unordered_map" || tabs[1].Title != "small/map" {
		t.Fatalf("bothKinds ran %v, %v", tabs, err)
	}
	boom := errors.New("boom")
	after := false
	failing := experiment{figs: []figure{
		func(harness.Scale) (harness.Table, error) { return harness.Table{}, boom },
		func(harness.Scale) (harness.Table, error) { after = true; return harness.Table{}, nil },
	}}
	if tabs, err := failing.run(harness.SmallScale()); !errors.Is(err, boom) || tabs != nil || after {
		t.Fatalf("failing experiment: tables %v, err %v, ran past the error: %v", tabs, err, after)
	}
}
