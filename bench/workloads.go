package main

import (
	"fmt"
	"regexp"
	"strconv"
)

// The three shipped CLIs are the system under test; the benchmark drives
// them from outside and never imports their packages.
const (
	binServe   = "crpmserve"
	binTorture = "crpmtorture"
	binBench   = "crpmbench"
)

// kind selects how a workload's child output is parsed.
type kind int

const (
	kindService kind = iota // crpmserve: tables on stdout, -json/-trace files
	kindTorture             // crpmtorture: one line per mode x crash image, then a total
	kindFig7                // crpmbench -exp fig7 -format csv: 60 throughput cells
	kindAux                 // any other crpmbench experiment: judged by its exit code
)

// child is one process the benchmark starts for a workload.
type child struct {
	bin  string
	args []string
}

// workload is one named input set. argv returns the timed command at the
// given seed; div divides every input size (1 in every real run; the smoke
// test passes more so it finishes in a second).
type workload struct {
	name string
	kind kind
	argv func(seed int64, div int) child
	// targetOps is the fixed offered rate of an open-loop workload in ops
	// per simulated second, 0 for a closed loop.
	targetOps float64
	// status matches this workload's progress lines; the first match marks
	// the end of set-up.
	status *regexp.Regexp
	// statusOnStdout is true when progress goes to stdout (crpmtorture).
	statusOnStdout bool
}

var (
	serveStatus   = regexp.MustCompile(`^\s*\d+/\d+ ops issued`)
	cellStatus    = regexp.MustCompile(`^\s*\d+/\d+ cells`)
	tortureStatus = regexp.MustCompile(`crash points\s+\d+ violations`)
)

// service builds `crpmserve S extra...`. S fixes the fleet the five service
// workloads share: 2 shards and -parallel 2 because the sandbox has 2 cores.
func service(extra func(div int) []string) func(int64, int) child {
	return func(seed int64, div int) child {
		args := []string{
			"-shards", "2", "-clients", "4",
			"-keys", strconv.Itoa(200000 / div),
			"-heap", strconv.Itoa(max(33554432/div, 1<<20)),
			"-buckets", strconv.Itoa(131072 / div),
			"-parallel", "2", "-seed", strconv.FormatInt(seed, 10), "-status",
		}
		return child{binServe, append(args, extra(div)...)}
	}
}

func itoa(n int) string { return strconv.Itoa(n) }

// policy is the stop-the-world cut policy of the closed workloads: a cut
// every 16384 acked ops per shard.
func policy(div int) string { return fmt.Sprintf("ops:%d", max(16384/div, 1)) }

// The rate ladder of a_open_inc brackets the knee of the incremental
// pipeline: at the seed 4.0 Mops/s meets the limit and 4.5 misses it.
var (
	ladderRates     = []float64{3.0e6, 3.5e6, 4.0e6, 4.5e6, 5.0e6, 5.5e6, 6.0e6}
	ladderP99LimitU = 1250.0 // open p99 limit, simulated microseconds
)

func openIncArgs(ops, warmup int, target float64) func(div int) []string {
	return func(div int) []string {
		return []string{"-mix", "a", "-dist", "uniform", "-ops", itoa(ops / div),
			"-policy", "pause:2us", "-target", strconv.FormatFloat(target, 'g', -1, 64),
			"-warmup", itoa(warmup / div)}
	}
}

// workloads lists the seven workloads in report order. BENCHMARK.json and
// README.md say why each is here.
var workloads = []workload{
	{
		name: "a_closed_stw", kind: kindService, status: serveStatus,
		argv: service(func(div int) []string {
			return []string{"-mix", "a", "-ops", itoa(2000000 / div), "-policy", policy(div)}
		}),
	},
	{
		name: "a_open_inc", kind: kindService, status: serveStatus, targetOps: 3e6,
		argv: service(openIncArgs(3000000, 100000, 3e6)),
	},
	{
		name: "crud_incll", kind: kindService, status: serveStatus,
		argv: service(func(div int) []string {
			return []string{"-mix", "crud", "-backend", "incll", "-ops", itoa(300000 / div), "-policy", policy(div)}
		}),
	},
	{
		name: "split_merge", kind: kindService, status: serveStatus, targetOps: 1e6,
		argv: service(func(div int) []string {
			return []string{"-mix", "a", "-ops", itoa(2000000 / div), "-policy", policy(div),
				"-target", "1e6", "-warmup", itoa(100000 / div), "-migrate", "split:0@2,merge:2>1@20"}
		}),
	},
	{
		name: "replica_b", kind: kindService, status: serveStatus,
		argv: service(func(div int) []string {
			return []string{"-mix", "b", "-ops", itoa(1500000 / div), "-policy", policy(div),
				"-replicas", "2", "-sla", "mix"}
		}),
	},
	{
		name: "crash_sweep", kind: kindTorture, status: tortureStatus, statusOnStdout: true,
		argv: func(seed int64, div int) child { return torture("core", seed, div) },
	},
	{
		name: "paper_fig7", kind: kindFig7, status: cellStatus,
		// crpmbench has no seed flag: this workload's inputs are the same
		// on every seed.
		argv: func(int64, int) child { return crpmbench("fig7", "-format", "csv", "-progress") },
	},
}

func torture(backend string, seed int64, div int) child {
	args := []string{"-backend", backend, "-parallel", "2", "-seed", strconv.FormatInt(seed, 10)}
	if div > 1 {
		args = append(args, "-quick")
	}
	return child{binTorture, args}
}

func crpmbench(exp string, extra ...string) child {
	return child{binBench, append([]string{"-exp", exp, "-scale", "small", "-parallel", "2"}, extra...)}
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// fig7Cells is the number of throughput cells `crpmbench -exp fig7` prints:
// 8 systems x 4 mixes on unordered_map, 7 x 4 on map (Dali has no map).
const fig7Cells = 60
