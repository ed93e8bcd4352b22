package main

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
)

// traced reruns each workload once with the CLI's own -json/-trace switched
// on, plus the auxiliary runs some metrics need. Simulated metrics are read
// here: they are exact, and tracing does not move them. Host metrics never
// come from these children.
func (b *bench) traced() {
	phase := b.log.begin(b.root, "traced")
	defer b.log.end(phase)
	for _, w := range b.sel {
		sim, layer := map[string]float64{}, map[string]float64{}
		b.res.Sim[w.name], b.res.Layers[w.name] = sim, layer
		for k, v := range b.ladder {
			layer[k] = v
		}
		switch w.kind {
		case kindService:
			b.tracedService(phase, w, sim, layer)
		case kindTorture:
			if b.perLayer {
				b.tracedTorture(phase, w, layer)
			}
		case kindFig7:
			b.tracedFig7(phase, w, sim, layer)
		}
		if tr := b.last(w.name, "traced"); tr != nil && b.perLayer {
			if base := median(b.host(w.name, hostMetrics["host_wall_s"])); base > 0 {
				layer["obs.trace_overhead_frac"] = tr.WallS/base - 1
			}
		}
		// The readers above fill in whatever a file holds; keep what is
		// declared for this workload.
		for _, m := range perLayer {
			if !m.appliesTo(w.name) {
				delete(layer, m.Name)
			}
		}
	}
}

// last returns the most recent child of a workload in the given role.
func (b *bench) last(workload, role string) *Run {
	for i := len(b.res.Samples) - 1; i >= 0; i-- {
		if s := b.res.Samples[i]; s.Workload == workload && s.Role == role {
			return s.Run
		}
	}
	return nil
}

// host collects one host figure over a workload's timed reps.
func (b *bench) host(workload string, f func(*Run) float64) []float64 {
	var v []float64
	for _, s := range b.res.Samples {
		if s.Workload == workload && s.Role == "timed" {
			v = append(v, f(s.Run))
		}
	}
	return v
}

func (b *bench) tracedService(phase int, w *workload, sim, layer map[string]float64) {
	c := w.argv(b.o.seed, b.o.div)
	c.args = append(c.args, "-json", "serve.json", "-trace", "serve.trace.json")
	s := b.child(phase, w, "traced", 0, c, kindService)
	if s == nil {
		return
	}
	r := s.Run
	m, err := tables(r.path("serve.json"))
	if err != nil {
		b.problem("%s: %v", w.name, err)
		return
	}
	spans, err := parseTrace(r.path("serve.trace.json"))
	if err != nil {
		b.problem("%s: %v", w.name, err)
		return
	}
	if int64(m["serve_total_ops"]) != s.Attempted || int64(m["serve_violations"]) != s.Failed {
		b.problem("%s: -json says %v ops and %v violations, stdout and stderr say %d and %d",
			w.name, m["serve_total_ops"], m["serve_violations"], s.Attempted, s.Failed)
	}
	sim["sim_mops"] = m["serve_tput_mops"]
	pauses := cutPauses(spans)
	if len(pauses) == 0 {
		b.problem("%s: no cut pause in the trace file", w.name)
		return
	}
	sim["sim_cut_pause_p95_us"] = nearestRank(pauses, 0.95)
	sim["sim_cut_pause_max_us"] = pauses[len(pauses)-1]
	b.pauses[w.name] = len(pauses)
	if w.targetOps > 0 {
		o, _ := parseServe(r.stdout, r.stderr, r.Exit) // parsed once already by child
		if len(o.open) != 6 {
			b.problem("%s: no open/all row in the measurement table", w.name)
			return
		}
		sim["sim_open_p50_us"] = o.open[0]
		sim["sim_open_p99_us"] = m["serve_open_p99_us"]
		sim["sim_open_p999_us"] = m["serve_open_p999_us"]
		if got := m["serve_achieved_ops"]; got < 0.99*w.targetOps {
			b.problem("%s: achieved %.0f ops/s of the %.0f offered", w.name, got, w.targetOps)
		}
	}
	if w.name == "a_open_inc" && b.endToEnd {
		sim["sim_max_rate_mops"] = b.rateLadder(phase, w)
	}
	if !b.perLayer {
		return
	}
	b.log.importSim(r.span, spans)
	ops, shards := m["serve_total_ops"], float64(argInt(c.args, "-shards"))
	if r.FirstStatusS >= 0 && ops > 0 {
		layer["server.serve_ns_per_op"] = (r.LastStatusS - r.FirstStatusS) * 1e9 * shards / ops
		layer["server.tail_s"] = r.WallS - r.LastStatusS
	}
	layer["server.cuts"] = m["serve_cuts"]
	if w.name == "a_closed_stw" {
		// What the serving loop costs beyond the structure, the hooks and
		// the cuts themselves (every shard checkpoints at every cut):
		// shadow map, histograms, cut snapshots, collectives.
		cutNS := b.ladder["core.ckpt_host_us"] * 1e3 * m["serve_cuts"] * shards / ops
		layer["server.loop_residual_ns"] = layer["server.serve_ns_per_op"] -
			b.ladder["pds.hashmap_self_ns"] - b.ladder["core.hook_ns"] - cutNS
	}
	sumMS := func(name string, keep func(string) bool) float64 {
		us, _ := spanTotal(spans, name, keep)
		return us / 1e3
	}
	layer["server.sim_populate_ms"] = sumMS("populate", primaryTrack)
	var pauseUS float64
	for _, p := range pauses {
		pauseUS += p
	}
	layer["server.sim_pause_ms"] = pauseUS / 1e3
	layer["server.migrated_keys"] = m["serve_migrated_keys"]
	layer["server.catchup_ops"] = m["serve_migration_catchup_ops"]
	for name, span := range map[string]string{
		"core.sim_ckpt_ms": "checkpoint", "core.sim_dirty_scan_ms": "dirty-scan", "core.sim_flush_ms": "flush",
		"core.sim_fence_ms": "fence", "core.sim_commit_ms": "commit", "core.sim_cow_ms": "cow",
		"core.sim_ckpt_begin_ms": "ckpt-begin", "core.sim_ckpt_step_ms": "ckpt-step",
		"core.sim_ckpt_replay_ms": "ckpt-replay", "core.sim_ckpt_commit_ms": "ckpt-commit",
	} {
		layer[name] = sumMS(span, primaryTrack)
	}
	_, cows := spanTotal(spans, "cow", primaryTrack)
	layer["core.cow_count"] = float64(cows)
	layer["measure.achieved_frac"] = m["serve_achieved_ops"] / max(m["serve_target_ops"], 1)
	layer["measure.svc_p99_us"] = m["serve_service_p99_us"]
	layer["measure.worst_interval_open_p99_us"] = m["serve_worst_interval_open_p99_us"]
	// The CLI counts secondary-served and unmet reads but not reads, so
	// both are shares of all requests (95 % of replica_b's are reads).
	layer["replica.sec_read_frac"] = m["serve_sec_reads"] / ops
	layer["replica.unmet_read_frac"] = m["serve_unmet_reads"] / ops
	layer["replica.stale_mean_epochs"] = m["serve_stale_mean_epochs"]
	layer["replica.sim_install_ms"] = sumMS("install", func(t string) bool { return strings.Contains(t, "/replica") })
}

var achievedRE = regexp.MustCompile(`open-loop measurement: target \d+ ops/s, achieved (\d+) ops/s`)

// rateLadder reruns a_open_inc shorter at each rate of the ladder and
// returns the highest rate, in Mops/s, whose open p99 meets the limit while
// the service keeps up with the arrivals. A rate whose run fails in any way
// misses the limit.
func (b *bench) rateLadder(phase int, w *workload) float64 {
	best := 0.0
	for i, rate := range ladderRates {
		c := service(openIncArgs(1000000, 50000, rate))(b.o.seed, b.o.div)
		s := b.child(phase, w, fmt.Sprintf("rate/%.1f", rate/1e6), i, c, kindService)
		if s == nil {
			continue
		}
		o, _ := parseServe(s.Run.stdout, s.Run.stderr, s.Run.Exit)
		m := achievedRE.FindSubmatch(s.Run.stdout)
		if len(o.open) != 6 || m == nil || s.Failed > 0 {
			continue
		}
		achieved, _ := strconv.ParseFloat(string(m[1]), 64) // digits only
		p99 := o.open[2]
		fmt.Fprintf(b.stdout, "a_open_inc: %.1f Mops/s offered: open p99 %.3f %s, achieved %.4f of target\n",
			rate/1e6, p99, simUS, achieved/rate)
		if p99 <= ladderP99LimitU && achieved >= 0.99*rate {
			best = max(best, rate/1e6)
		}
	}
	return best
}

func (b *bench) tracedFig7(phase int, w *workload, sim, layer map[string]float64) {
	// Every rep printed the same CSV (check enforces it), so the last
	// one's cells are the workload's.
	var cells fig7Out
	if r := b.last(w.name, "timed"); r != nil {
		cells, _ = parseFig7(r.stdout) // parsed once already by child
	}
	def, ok1 := cells.at("unordered_map", "libcrpm-Default", "Balanced")
	np, ok2 := cells.at("unordered_map", "NVM-NP", "Balanced")
	if !ok1 || !ok2 || np == 0 {
		b.problem("%s: no unordered_map Balanced cell for libcrpm-Default and NVM-NP", w.name)
	} else {
		sim["sim_mops"] = def
		sim["sim_ckpt_overhead_frac"] = 1 - def/np
	}
	if b.endToEnd {
		b.table1a(phase, w, sim)
	}
	if !b.perLayer {
		return
	}
	c := w.argv(b.o.seed, b.o.div)
	c.args = append(c.args, "-json", "-trace", "fig7.trace.json")
	if s := b.child(phase, w, "traced", 0, c, kindFig7); s != nil {
		r := s.Run
		if spans, err := parseTrace(r.path("fig7.trace.json")); err != nil {
			b.problem("%s: %v", w.name, err)
		} else {
			b.log.importSim(r.span, spans)
		}
		layer["harness.cells_per_s"] = fig7Cells / r.WallS
		layer["harness.first_cell_s"] = r.FirstStatusS
	}
	// The paper's Figure 1 split, for the span file only.
	if s := b.child(phase, w, "fig1", 0, crpmbench("fig1", "-json", "-trace", "fig1.trace.json"), kindAux); s != nil {
		if spans, err := parseTrace(s.Run.path("fig1.trace.json")); err != nil {
			b.problem("%s: fig1: %v", w.name, err)
		} else {
			b.log.importSim(s.Run.span, spans)
		}
	}
}

// table1a runs the paper's Table 1a for the checkpoint bytes libcrpm's
// default mode writes per operation on the Balanced mix.
func (b *bench) table1a(phase int, w *workload, sim map[string]float64) {
	s := b.child(phase, w, "table1a", 0, crpmbench("table1a", "-json"), kindAux)
	if s == nil {
		return
	}
	m, err := tables(s.Run.path("BENCH_small.json"))
	if v, ok := m["ckpt_bytes_per_op/libcrpm-Default/Balanced"]; err == nil && ok {
		sim["sim_ckpt_bytes_per_op"] = v
	} else {
		b.problem("%s: table1a: no ckpt_bytes_per_op/libcrpm-Default/Balanced (%v)", w.name, err)
	}
}

func (b *bench) tracedTorture(phase int, w *workload, layer map[string]float64) {
	c := w.argv(b.o.seed, b.o.div)
	c.args = append(c.args, "-trace", "torture.trace.json")
	if s := b.child(phase, w, "traced", 0, c, kindTorture); s != nil {
		r := s.Run
		if spans, err := parseTrace(r.path("torture.trace.json")); err != nil {
			b.problem("%s: %v", w.name, err)
		} else {
			b.log.importSim(r.span, spans)
		}
		layer["torture.replays"] = float64(s.Attempted)
		layer["torture.replays_per_s"] = float64(s.Attempted) / r.WallS
	}
	// The timed sweep leaves InCLL out (see tortureOut); this run of every
	// backend keeps its count in view.
	if s := b.child(phase, w, "all-backends", 0, torture("all", b.o.seed, b.o.div), kindTorture); s != nil {
		o, _ := parseTorture(s.Run.stdout, s.Run.Exit) // parsed once already by child
		layer["torture.incll_replays"] = float64(o.incllReplays)
		layer["torture.incll_violations"] = float64(o.incllViolations)
	}
}

// layers runs the ladder. Its numbers do not depend on the workload, so
// every selected workload reports them.
func (b *bench) layers() {
	phase := b.log.begin(b.root, "ladder")
	defer b.log.end(phase)
	size := fullLadder
	if b.o.div > 1 {
		size = tinyLadder
	}
	if b.driver() {
		size = size.scaled(b.o.budget.Seconds() / 50)
	}
	var problems []string
	b.ladder, problems = runLadder(size, b.o.seed, b.log, phase)
	for _, p := range problems {
		b.problem("%s", p)
	}
}
