// Command crpmtorture runs the adversarial crash-consistency sweep from a
// shell, for CI and for soak runs: a deterministic scripted workload is
// replayed once per crash point, crashing after the k-th device primitive
// under each crash policy (seeded-random, persist-all, drop-all, and
// optionally the alternating adversary), in each container mode (default,
// buffered, eager-CoW). Every crash image is reopened, recovered, fsck'd,
// and diffed against the committed shadow state.
//
// Usage:
//
//	crpmtorture                 # full sweep, exit 1 on any violation
//	crpmtorture -quick          # strided sweep for fast CI
//	crpmtorture -stride 7       # custom stride
//	crpmtorture -checksums=false  # sweep the plain (v1) metadata format
package main

import (
	"flag"
	"fmt"
	"os"

	"libcrpm/internal/obs"
	"libcrpm/internal/torture"
)

func main() {
	quick := flag.Bool("quick", false, "strided quick sweep (stride 17, shorter script)")
	stride := flag.Int("stride", 1, "test every N-th crash point")
	steps := flag.Int("steps", 0, "workload steps (default 240)")
	ckptEvery := flag.Int("ckpt-every", 0, "steps between checkpoints (default 60)")
	seed := flag.Int64("seed", 1, "script and policy seed")
	checksums := flag.Bool("checksums", true, "run with the metadata checksum extension")
	adversarial := flag.Bool("adversarial", false, "add the alternating per-line adversary policy")
	backend := flag.String("backend", "core", "systems to sweep: core (default/buffered/eager-cow), incll (in-cache-line logging, with its media-fault grid), all (the four modes, no fault grid)")
	liveness := flag.Bool("liveness", true, "verify each recovered container still checkpoints")
	parallel := flag.Int("parallel", 0, "crash-point replays in flight (0 = GOMAXPROCS, 1 = serial); output is byte-identical at any setting")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON of each mode's reference-run phase spans to this file")
	flag.Parse()

	cfg := torture.Config{
		Steps:     *steps,
		CkptEvery: *ckptEvery,
		Seed:      *seed,
		Stride:    *stride,
		Checksums: *checksums,
		Liveness:  *liveness,
		Parallel:  *parallel,
		Trace:     *tracePath != "",
		Progress: func(mode, policy string, points, violations int) {
			fmt.Printf("%-10s %-12s %5d crash points  %d violations\n", mode, policy, points, violations)
		},
	}
	if *quick {
		if cfg.Stride == 1 {
			cfg.Stride = 17
		}
		cfg.Steps = 120
		cfg.CkptEvery = 40
	}
	if *adversarial {
		cfg.Policies = append(torture.StandardPolicies(*seed), torture.AdversarialPolicy())
	}
	switch *backend {
	case "core":
		// nil Modes selects the standard core trio.
	case "incll":
		cfg.Modes = []torture.Mode{torture.InCLLMode()}
		cfg.Faults = append([]torture.Fault{{}}, torture.InCLLFaults()...)
	case "all":
		// All four modes, fault-free: the media-fault grid is incll-specific
		// (a fault is an axis of the whole sweep, and incll's dead ranges mean
		// nothing on a core device), so it rides -backend incll only.
		cfg.Modes = append(torture.StandardModes(), torture.InCLLMode())
	default:
		fmt.Fprintf(os.Stderr, "unknown -backend %q (core|incll|all)\n", *backend)
		os.Exit(2)
	}

	res, err := torture.Sweep(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	fmt.Printf("total: %d replays\n", res.Replays)
	if *tracePath != "" {
		tracks, err := obs.WriteTraceFile(*tracePath, res.Trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Printf("wrote %s (%d tracks)\n", *tracePath, tracks)
	}
	if !res.OK() {
		for _, v := range res.Violations {
			fmt.Fprintf(os.Stderr, "VIOLATION: %s\n", v)
		}
		fmt.Fprintf(os.Stderr, "%d consistency violations\n", len(res.Violations))
		os.Exit(1)
	}
	fmt.Println("torture sweep passed: no consistency violations")
}
