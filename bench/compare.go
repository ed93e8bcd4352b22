package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// side is one side of a comparison: the raw reps of several results files
// pooled. Taking base and change as alternating short invocations and
// pooling them here spreads slow machine drift over both sides.
type side struct {
	host      map[string]map[string][]float64 // workload -> metric -> one value per timed rep
	sim       map[string]map[string][]float64 // workload -> metric -> one value per file
	attempted map[string]int64
	failed    map[string]int64
}

func loadSide(paths []string) (*side, error) {
	s := &side{
		host: map[string]map[string][]float64{}, sim: map[string]map[string][]float64{},
		attempted: map[string]int64{}, failed: map[string]int64{},
	}
	add := func(to map[string]map[string][]float64, workload, metric string, v float64) {
		if to[workload] == nil {
			to[workload] = map[string][]float64{}
		}
		to[workload][metric] = append(to[workload][metric], v)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r results
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if len(r.Problems) > 0 {
			return nil, fmt.Errorf("%s records %d integrity problems; its numbers are not comparable", p, len(r.Problems))
		}
		for _, sm := range r.Samples {
			s.attempted[sm.Workload] += sm.Attempted
			s.failed[sm.Workload] += sm.Failed
			if sm.Role != "timed" || sm.Run == nil {
				continue
			}
			for name, f := range hostMetrics {
				add(s.host, sm.Workload, name, f(sm.Run))
			}
		}
		for workload, ms := range r.Sim {
			for name, v := range ms {
				add(s.sim, workload, name, v)
			}
		}
	}
	return s, nil
}

func (s *side) values(workload, metric string) []float64 {
	if v := s.host[workload][metric]; v != nil {
		return v
	}
	return s.sim[workload][metric]
}

// verdict judges one workload x metric pairing by how far the change's
// median is on the wrong side of the base's, as a share of the base's.
func verdict(m metric, base, change summary) string {
	worse := (change.Median - base.Median) / base.Median
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > m.Bound:
		return "WORSE"
	case max(base.spread(), change.spread()) > m.Bound:
		// The runs of one side disagree by more than the bound, so a
		// median inside it does not show the metric unchanged.
		return "unresolved"
	case worse < -m.Bound:
		return "better"
	}
	return "within bound"
}

// compare prints, per workload x end-to-end metric, both medians with
// quartiles and sample counts, the ratio change/base, the bound and a
// verdict. It returns non-zero when any metric is worse than its bound
// allows or a workload's failed share grew.
func compare(basePaths, changePaths []string, stdout, stderr io.Writer) int {
	base, err := loadSide(basePaths)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	change, err := loadSide(changePaths)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	return compareSides(base, change, stdout)
}

func compareSides(base, change *side, stdout io.Writer) int {
	bad := 0
	fmt.Fprintf(stdout, "%-13s %-23s %12s %24s %3s %12s %24s %3s %8s %6s  %s\n",
		"workload", "metric", "base median", "[q1, q3]", "n", "change", "[q1, q3]", "n", "chg/base", "bound", "verdict")
	for _, w := range workloads {
		for _, m := range endToEnd {
			bv, cv := base.values(w.name, m.Name), change.values(w.name, m.Name)
			if !m.appliesTo(w.name) || len(bv) == 0 || len(cv) == 0 {
				continue
			}
			bs, cs := summarize(bv), summarize(cv)
			word := verdict(m, bs, cs)
			if word == "WORSE" {
				bad++
			}
			fmt.Fprintf(stdout, "%-13s %-23s %12.6g %24s %3d %12.6g %24s %3d %8.4f %5.0f%%  %s\n",
				w.name, m.Name, bs.Median, fmt.Sprintf("[%.6g, %.6g]", bs.Q1, bs.Q3), bs.N,
				cs.Median, fmt.Sprintf("[%.6g, %.6g]", cs.Q1, cs.Q3), cs.N, cs.Median/bs.Median, m.Bound*100, word)
		}
		ba, ca := base.attempted[w.name], change.attempted[w.name]
		if ba == 0 || ca == 0 {
			continue
		}
		bf, cf := float64(base.failed[w.name])/float64(ba), float64(change.failed[w.name])/float64(ca)
		word := "no larger"
		if cf > bf {
			word = "LARGER"
			bad++
		}
		fmt.Fprintf(stdout, "%-13s %-23s %12.6g %24s %3s %12.6g %24s %3s %8s %6s  %s\n",
			w.name, "failed share", bf, fmt.Sprintf("%d of %d", base.failed[w.name], ba), "",
			cf, fmt.Sprintf("%d of %d", change.failed[w.name], ca), "", "", "", word)
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "%d pairings worse than the bound allows or failing more\n", bad)
		return 1
	}
	return 0
}
