package main

import (
	"encoding/json"
	"fmt"
	"math"
)

// hostMetrics says how each host end-to-end metric is read off a child.
var hostMetrics = map[string]func(*Run) float64{
	"host_wall_s":      func(r *Run) float64 { return r.WallS },
	"host_cpu_s":       func(r *Run) float64 { return r.UserS + r.SysS },
	"host_peak_rss_mb": func(r *Run) float64 { return r.RSSMiB },
	// Set-up ends at the child's first progress line. For a service
	// workload that covers generating the op stream, allocating and
	// formatting the devices, populate, the populate cut and the first
	// batch; for a sweep, everything up to the first finished cell.
	"setup_s": func(r *Run) float64 { return r.FirstStatusS },
}

// check applies the integrity rules that span reps. The per-child rules
// (exit status, readable output) were applied as each child finished.
func (b *bench) check() {
	for _, w := range b.sel {
		var ref *sample
		for i := range b.res.Samples {
			s := &b.res.Samples[i]
			// Progress aside, what a CLI prints is a pure function of its
			// flags. The traced rep adds only files, except crpmtorture,
			// which names its trace file on stdout.
			same := s.Role == "timed" || s.Role == "traced" && w.kind != kindTorture
			if s.Workload != w.name || !same || s.Run == nil {
				continue
			}
			if ref == nil {
				ref = s
				continue
			}
			if s.StdoutSHA != ref.StdoutSHA {
				b.problem("%s: %s rep %d printed other stdout bytes than %s rep %d", w.name, s.Role, s.Rep, ref.Role, ref.Rep)
			}
			if s.Attempted != ref.Attempted || s.Failed != ref.Failed {
				b.problem("%s: %s rep %d attempted %d and failed %d operations, %s rep %d %d and %d",
					w.name, s.Role, s.Rep, s.Attempted, s.Failed, ref.Role, ref.Rep, ref.Attempted, ref.Failed)
			}
		}
		if ref == nil {
			b.problem("%s: no rep completed", w.name)
			continue
		}
		if w.kind == kindFig7 && ref.Failed > 0 {
			b.problem("%s: %d of %d cells missing or not numeric", w.name, ref.Failed, fig7Cells)
		}
		for _, v := range b.host(w.name, hostMetrics["setup_s"]) {
			if v < 0 {
				b.problem("%s: a rep printed no progress line, so its set-up time is unknown", w.name)
				break
			}
		}
	}
}

// endToEndOf reduces a workload's end-to-end metrics: host metrics over its
// timed reps, simulated ones as the single exact value of the traced rep.
// A declared metric that could not be measured is an integrity problem.
func (b *bench) endToEndOf(w *workload) map[string]summary {
	out := map[string]summary{}
	for _, m := range endToEnd {
		if !m.appliesTo(w.name) {
			continue
		}
		if f, ok := hostMetrics[m.Name]; ok {
			out[m.Name] = summarize(b.host(w.name, f))
		} else if v, ok := b.res.Sim[w.name][m.Name]; ok {
			out[m.Name] = summary{Median: v, Q1: v, Q3: v, N: 1}
		}
		if s, ok := out[m.Name]; !ok || s.N == 0 || math.IsNaN(s.Median) {
			b.problem("%s: %s was not measured", w.name, m.Name)
			delete(out, m.Name)
		}
	}
	return out
}

// totals sums the operations of every child of a workload.
func (b *bench) totals(workload string) (attempted, failed int64) {
	for _, s := range b.res.Samples {
		if s.Workload == workload {
			attempted += s.Attempted
			failed += s.Failed
		}
	}
	return attempted, failed
}

func (b *bench) report() {
	b.check()
	for _, w := range b.sel {
		e2e := map[string]summary{}
		if b.endToEnd {
			e2e = b.endToEndOf(w)
			b.e2e[w.name] = e2e
		}
		fmt.Fprintf(b.stdout, "\n== %s (seed %d) ==\n", w.name, b.o.seed)
		fmt.Fprintf(b.stdout, "%-28s %-11s %14s %14s %14s %3s\n", "end-to-end metric", "unit", "median", "q1", "q3", "n")
		for _, m := range endToEnd {
			if s, ok := e2e[m.Name]; ok {
				fmt.Fprintf(b.stdout, "%-28s %-11s %14.6g %14.6g %14.6g %3d\n", m.Name, m.Unit, s.Median, s.Q1, s.Q3, s.N)
			} else if b.endToEnd && !m.appliesTo(w.name) {
				fmt.Fprintf(b.stdout, "%-28s %-11s %14s\n", m.Name, m.Unit, "n/a")
			}
		}
		if n, ok := b.pauses[w.name]; ok {
			fmt.Fprintf(b.stdout, "cut-pause metrics are over %d spans\n", n)
		}
		attempted, failed := b.totals(w.name)
		fmt.Fprintf(b.stdout, "%-28s %-11s %14d\n%-28s %-11s %14d\n", "ops_attempted", "count", attempted, "ops_failed", "count", failed)
		if !b.perLayer {
			continue
		}
		fmt.Fprintf(b.stdout, "%-40s %-11s %14s\n", "per-layer metric", "unit", "value")
		for _, m := range perLayer {
			if !m.appliesTo(w.name) || m.on == nil {
				continue // not this workload's, or the ladder's
			}
			if v, ok := b.res.Layers[w.name][m.Name]; ok {
				fmt.Fprintf(b.stdout, "%-40s %-11s %14.6g\n", m.Name, m.Unit, v)
			} else {
				b.problem("%s: %s was not measured", w.name, m.Name)
			}
		}
	}
	if !b.perLayer {
		return
	}
	// The ladder's numbers belong to no workload; they are printed once.
	fmt.Fprintf(b.stdout, "\n== layer ladder (seed %d) ==\n%-40s %-11s %14s\n", b.o.seed, "per-layer metric", "unit", "value")
	for _, m := range perLayer {
		if v, ok := b.ladder[m.Name]; ok {
			fmt.Fprintf(b.stdout, "%-40s %-11s %14.6g\n", m.Name, m.Unit, v)
		} else if m.on == nil {
			b.problem("ladder: %s was not measured", m.Name)
		}
	}
}

// resultLine prints the one JSON object the driver reads: every gated
// end-to-end metric with --trace 0, every metric without a bound with
// --trace 1, on whatever workload. See metric.on for what a name holds
// where it does not apply.
func (b *bench) resultLine() {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	w := b.sel[0]
	metrics := map[string]value{}
	gated, unbounded := declared()
	if b.endToEnd {
		for _, m := range gated {
			v := notApplicable
			if m.appliesTo(w.name) {
				v = b.e2e[w.name][m.Name].Median
			}
			metrics[m.Name] = value{v, m.Unit}
		}
	} else {
		for _, m := range unbounded {
			v := b.res.Layers[w.name][m.Name]
			if f, ok := hostMetrics[m.Name]; ok {
				v = median(b.host(w.name, f)) // an ungated end-to-end metric
			}
			metrics[m.Name] = value{v, m.Unit}
		}
	}
	attempted, failed := b.totals(w.name)
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(b.res.Problems) == 0, max(attempted, 1), failed, metrics})
	if err != nil {
		b.problem("result line: %v", err) // a NaN or an infinity among the values
		return
	}
	fmt.Fprintf(b.stdout, "%s\n", line)
}
