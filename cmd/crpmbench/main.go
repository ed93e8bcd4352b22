// Command crpmbench regenerates the tables and figures of the libcrpm paper
// (DAC 2022) on the simulated NVM substrate.
//
// Usage:
//
//	crpmbench -exp all                 # everything, small scale
//	crpmbench -exp fig7 -scale medium  # one experiment, bigger inputs
//	crpmbench -list
//
// Experiments: fig1, fig7, fig8, fig9, fig10a, fig10b, table1a, table1b,
// service, replica, crossover, slo, elastic, recovery, pauses, storage,
// ablations, all.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"libcrpm/internal/harness"
	"libcrpm/internal/obs"
	"libcrpm/internal/prof"
)

// figure is one table of the evaluation at a scale.
type figure = func(harness.Scale) (harness.Table, error)

type experiment struct {
	name string
	desc string
	figs []figure
}

// run regenerates the experiment's tables, in order.
func (e experiment) run(sc harness.Scale) ([]harness.Table, error) {
	var out []harness.Table
	for _, f := range e.figs {
		t, err := f(sc)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// bothKinds is a data-structure figure on the unordered_map, then on the map.
func bothKinds(f func(harness.Scale, harness.DSKind) (harness.Table, error)) []figure {
	return []figure{
		func(sc harness.Scale) (harness.Table, error) { return f(sc, harness.DSHashMap) },
		func(sc harness.Scale) (harness.Table, error) { return f(sc, harness.DSRBMap) },
	}
}

func experiments() []experiment {
	return []experiment{
		{"fig1", "execution-time breakdown of unordered_map (Figure 1)", []figure{harness.Fig1Breakdown}},
		{"fig7", "throughput of map and unordered_map across workloads (Figure 7)", bothKinds(harness.Fig7Throughput)},
		{"fig8", "relative execution time of LULESH/HPCCG/CoMD (Figure 8)", []figure{harness.Fig8Apps}},
		{"fig9", "throughput vs checkpoint interval (Figure 9)", bothKinds(harness.Fig9Interval)},
		{"fig10a", "throughput vs segment size (Figure 10a)", []figure{harness.Fig10aSegment}},
		{"fig10b", "throughput vs block size (Figure 10b)", []figure{harness.Fig10bBlock}},
		{"table1a", "average checkpoint size per operation (Table 1a)", []figure{harness.Table1a}},
		{"table1b", "sfence instructions per epoch (Table 1b)", []figure{harness.Table1b}},
		{"service", "sharded KV service throughput and cut pause vs shard count, stop-the-world and incremental pause-budget cuts (extension)", []figure{harness.ServiceFigure}},
		{"replica", "replicated service read throughput, staleness, and SLA-unmet fraction vs replica count x SLA (extension)", []figure{harness.ReplicaFigure}},
		{"crossover", "InCLL vs differential checkpointing: write-size x locality x mix crossover, the per-backend OnWrite micro matrix, and the per-backend service scaling study (extension)", []figure{
			harness.CrossoverFigure,
			harness.OnWriteMicro,
			harness.ServiceBackendFigure,
		}},
		{"slo", "open-loop throughput vs p99 latency per backend x cut policy, coordinated-omission-free (extension)", []figure{harness.SLOFigure}},
		{"elastic", "live shard split under open-loop load: throughput and p99 before/during/after the migration (extension)", []figure{harness.ElasticFigure}},
		{"recovery", "LULESH recovery time (§5.5)", []figure{harness.RecoveryTime}},
		{"pauses", "checkpoint pause-time distribution (extension)", []figure{harness.PauseTimes}},
		{"storage", "storage cost of LULESH (§5.6)", []figure{harness.StorageCost}},
		{"ablations", "design-choice ablations (eager CoW, diff copy, flush path, backup ratio, FTI hashing, modes)", []figure{
			harness.AblationEagerCoW,
			harness.AblationDifferentialCopy,
			harness.AblationFlushThreshold,
			harness.AblationBackupRatio,
			harness.AblationFTIIncremental,
			harness.AblationBufferedVsDefault,
			harness.AblationEADR,
		}},
	}
}

func main() { os.Exit(run()) }

// run is main's body; it returns the exit code so that deferred profile
// writers execute before the process exits.
func run() int {
	exp := flag.String("exp", "all", "experiment to run (or 'all')")
	scaleName := flag.String("scale", "small", "input scale: small | medium | paper (paper maps an 8.6-25.9 GiB arena per data-structure cell; see ROADMAP item 11)")
	format := flag.String("format", "text", "output format: text | csv")
	list := flag.Bool("list", false, "list experiments and exit")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (after the experiments finish) to this file; simulated devices and the backends' DRAM images are mapped off the Go heap and not in it")
	parallel := flag.Int("parallel", 0, "experiment cells in flight (0 = GOMAXPROCS, 1 = serial); tables are byte-identical at any setting")
	jsonOut := flag.Bool("json", false, "also write a BENCH_<scale>.json perf trajectory (wall-clock per experiment, simulated-clock and checkpoint-byte metrics)")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON (Perfetto-loadable) of the traced experiments' phase spans to this file; timestamps are simulated, so the file is byte-identical at any -parallel")
	progress := flag.Bool("progress", false, "report sweep progress (cells done/total) on stderr")
	flag.Parse()

	harness.SetParallelism(*parallel)
	// -json wants the per-phase span_ms metrics in the trajectory, so both
	// flags turn per-cell tracing on.
	harness.SetTracing(*tracePath != "" || *jsonOut)
	if *progress {
		harness.SetProgress(func(done, total int) {
			fmt.Fprintf(os.Stderr, "\r  %d/%d cells", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		})
	}

	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer stopProf()

	exps := experiments()
	if *list {
		for _, e := range exps {
			fmt.Printf("%-10s %s\n", e.name, e.desc)
		}
		return 0
	}

	var sc harness.Scale
	switch *scaleName {
	case "small":
		sc = harness.SmallScale()
	case "medium":
		sc = harness.MediumScale()
	case "paper":
		sc = harness.PaperScale()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q (small|medium|paper)\n", *scaleName)
		return 2
	}

	var selected []experiment
	if *exp == "all" {
		selected = exps
	} else {
		for _, e := range exps {
			if e.name == strings.ToLower(*exp) {
				selected = []experiment{e}
			}
		}
		if selected == nil {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *exp)
			return 2
		}
	}

	var traj benchTrajectory
	runStart := time.Now()
	for _, e := range selected {
		start := time.Now()
		tables, err := e.run(sc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
			return 1
		}
		for _, t := range tables {
			if *format == "csv" {
				fmt.Printf("# %s\n%s\n", t.Title, t.CSV())
			} else {
				fmt.Println(t)
			}
		}
		if *format != "csv" {
			fmt.Printf("[%s completed in %v]\n\n", e.name, time.Since(start).Round(time.Millisecond))
		}
		traj.add(e.name, time.Since(start), tables)
	}
	if *jsonOut {
		path := fmt.Sprintf("BENCH_%s.json", sc.Name)
		if err := traj.write(path, sc.Name, *parallel, time.Since(runStart)); err != nil {
			fmt.Fprintf(os.Stderr, "json: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}
	if *tracePath != "" {
		tracks, err := obs.WriteTraceFile(*tracePath, harness.TakeTrace())
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d tracks; open at ui.perfetto.dev)\n", *tracePath, tracks)
	}
	return 0
}

// benchTrajectory accumulates the -json perf record: per-experiment
// wall-clock plus whatever machine-readable metrics the tables collected
// (simulated-clock totals, checkpoint bytes per op). Subsequent PRs diff
// these files to catch harness performance regressions.
type benchTrajectory struct {
	Experiments []harness.Experiment
}

func (tr *benchTrajectory) add(name string, wall time.Duration, tables []harness.Table) {
	wallMS := float64(wall.Microseconds()) / 1000
	tr.Experiments = append(tr.Experiments, harness.Experiment{Name: name, WallMS: &wallMS, Tables: tables})
}

func (tr *benchTrajectory) write(path, scale string, parallel int, total time.Duration) error {
	out := struct {
		Scale       string               `json:"scale"`
		Parallel    int                  `json:"parallel"`
		GOMAXPROCS  int                  `json:"gomaxprocs"`
		TotalWallMS float64              `json:"total_wall_ms"`
		Experiments []harness.Experiment `json:"experiments"`
	}{
		Scale:       scale,
		Parallel:    parallel,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		TotalWallMS: float64(total.Microseconds()) / 1000,
		Experiments: tr.Experiments,
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
