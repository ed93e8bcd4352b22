// Command bench is the repository's benchmark. It builds the three shipped
// CLIs, drives them from outside on seven named workloads, and reports
// end-to-end metrics on two clocks (the host's, from each child process,
// and the simulated device's, from the CLIs' own output) plus per-layer
// metrics from a traced run and an in-process layer ladder. README.md
// explains every workload and metric; BENCHMARK.json declares them.
//
//	bash bench/run.sh                          every workload, 5 reps
//	bash bench/run.sh -workload a_open_inc -reps 3 -out r.json -spans s.json
//	bash bench/run.sh -compare a1.json,a2.json b1.json,b2.json
//	bash bench/run.sh --workload crud_incll --seed 7 --seconds 10 --trace 0
//
// The last form is the driver's: one workload, timed reps for the given
// number of seconds, and one JSON object as the last line of stdout.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr)) }

// minReps is the fewest timed reps a workload gets when the driver's
// --seconds sets the budget. The issue asked for three; the driver's cap
// on all its runs together leaves room for two on the slow workloads.
const minReps = 2

// defaultReps is the rep count of a full run.
const defaultReps = 5

type options struct {
	seed      int64
	reps      int
	budget    time.Duration // the driver's --seconds; 0 in a full run
	trace     int
	workloads string
	out       string
	spans     string
	compare   bool

	// Set by tests only: div shrinks every input, binDir replaces the
	// built CLIs.
	div    int
	binDir string
}

func cli(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Int64Var(&o.seed, "seed", 1, "workload seed, passed through to crpmserve and crpmtorture")
	fs.IntVar(&o.reps, "reps", defaultReps, "timed reps per workload (ignored with -seconds)")
	seconds := fs.Int("seconds", 0, "driver mode: run timed reps for this long (at least 2 reps), then print one JSON result line")
	fs.IntVar(&o.trace, "trace", 0, "driver mode: 0 reports the gated end-to-end metrics, 1 the metrics without a bound")
	fs.StringVar(&o.workloads, "workload", "", "comma-separated workload names (default: all seven)")
	fs.StringVar(&o.workloads, "workloads", "", "same as -workload")
	fs.StringVar(&o.out, "out", "", "write the raw per-rep samples and every metric to this results file")
	fs.StringVar(&o.spans, "spans", "", "write every host and imported simulated span to this file")
	fs.BoolVar(&o.compare, "compare", false, "compare two sets of results files: -compare A1.json,A2.json B1.json,B2.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two comma-separated lists of results files")
			return 2
		}
		return compare(strings.Split(fs.Arg(0), ","), strings.Split(fs.Arg(1), ","), stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	o.div, o.budget = 1, time.Duration(*seconds)*time.Second
	b, err := newBench(o, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	return b.main()
}

// sample is one child run with the rep it belongs to and the operations it
// attempted and failed.
type sample struct {
	Workload string `json:"workload"`
	// Role is "timed" for the reps host metrics are taken from, "traced"
	// for the rep with the CLI's -json/-trace on, or the name of an
	// auxiliary run (a ladder rate, table1a, ...).
	Role string `json:"role"`
	Rep  int    `json:"rep"`
	// SpinMS is the fixed spin loop taken just before the child started.
	SpinMS    float64 `json:"spin_ms"`
	Attempted int64   `json:"ops_attempted"`
	Failed    int64   `json:"ops_failed"`
	*Run
}

// results is the file -out writes and -compare reads.
type results struct {
	Header struct {
		Seed       int64    `json:"seed"`
		Reps       int      `json:"reps"`
		Nproc      int      `json:"nproc"`
		GOMAXPROCS string   `json:"child_gomaxprocs"`
		GoVersion  string   `json:"go_version"`
		Commit     string   `json:"git_commit"`
		Started    string   `json:"started"`
		Workloads  []string `json:"workloads"`
	} `json:"header"`
	// Samples holds every child in start order; Argv makes each replayable.
	Samples []sample `json:"samples"`
	// Sim holds the simulated end-to-end metrics per workload, which are
	// single exact values, not samples.
	Sim map[string]map[string]float64 `json:"sim"`
	// Layers holds the per-layer metrics per workload.
	Layers   map[string]map[string]float64 `json:"layers,omitempty"`
	Problems []string                      `json:"integrity_problems"`
}

type bench struct {
	o              options
	stdout, stderr io.Writer
	sel            []*workload
	rn             *runner
	log            *spanLog
	root           int // the span everything hangs under
	res            results
	// endToEnd and perLayer say which metrics this run reports: both in a
	// full run, one of them in a driver run.
	endToEnd, perLayer bool
	ladder             map[string]float64
	e2e                map[string]map[string]summary
	// pauses is the sample count behind each workload's cut-pause metrics.
	pauses map[string]int
}

func newBench(o options, stdout, stderr io.Writer) (*bench, error) {
	b := &bench{o: o, stdout: stdout, stderr: stderr, log: newSpanLog(), pauses: map[string]int{}}
	if o.workloads == "" {
		for i := range workloads {
			b.sel = append(b.sel, &workloads[i])
		}
	}
	for _, name := range strings.Split(o.workloads, ",") {
		if name == "" {
			continue
		}
		w := findWorkload(name)
		if w == nil {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		b.sel = append(b.sel, w)
	}
	if o.budget < 0 || o.reps < 1 || (o.trace != 0 && o.trace != 1) {
		return nil, errors.New("-seconds and -reps must be positive and -trace 0 or 1")
	}
	if o.budget > 0 && len(b.sel) != 1 {
		return nil, errors.New("-seconds reports one workload: name it with -workload")
	}
	b.perLayer = o.budget == 0 || o.trace == 1
	b.endToEnd = o.budget == 0 || o.trace == 0
	b.e2e = map[string]map[string]summary{}
	b.res.Sim = map[string]map[string]float64{}
	b.res.Layers = map[string]map[string]float64{}
	return b, nil
}

func (b *bench) driver() bool { return b.o.budget > 0 }

func (b *bench) problem(format string, args ...any) {
	p := fmt.Sprintf(format, args...)
	b.res.Problems = append(b.res.Problems, p)
	fmt.Fprintln(b.stderr, "integrity:", p)
}

// findRoot locates the repository from the working directory, which is the
// root itself under run.sh and bench/ under `go run .`.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for range 3 {
		if _, err := os.Stat(filepath.Join(dir, "cmd", binServe, "main.go")); err == nil {
			return dir, nil
		}
		dir = filepath.Dir(dir)
	}
	return "", errors.New("run from the repository root or from bench/: cmd/crpmserve not found")
}

// buildDir is where everything the benchmark writes goes, unless a flag
// names a file. The root .gitignore lists it.
const buildDir = ".bench_build"

func buildCLIs(root, binDir string, stderr io.Writer) error {
	cmd := exec.Command("go", "build", "-o", binDir+string(filepath.Separator),
		"./cmd/"+binServe, "./cmd/"+binTorture, "./cmd/"+binBench)
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = stderr, stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go build of the three CLIs: %w", err)
	}
	return nil
}

// setUp finds the repository, builds the CLIs and makes the directory the
// children run in; the returned function removes that directory.
func (b *bench) setUp() (root string, cleanUp func(), err error) {
	if root, err = findRoot(); err != nil {
		return "", nil, err
	}
	binDir := b.o.binDir
	if binDir == "" {
		binDir = filepath.Join(root, buildDir, "bin")
		if err := buildCLIs(root, binDir, b.stderr); err != nil {
			return "", nil, err
		}
	}
	if err := os.MkdirAll(filepath.Join(root, buildDir), 0o755); err != nil {
		return "", nil, err
	}
	workDir, err := os.MkdirTemp(filepath.Join(root, buildDir), "work")
	if err != nil {
		return "", nil, err
	}
	b.rn = &runner{binDir: binDir, workDir: workDir}
	return root, func() { os.RemoveAll(workDir) }, nil
}

func (b *bench) main() int {
	root, cleanUp, err := b.setUp()
	if err != nil {
		fmt.Fprintln(b.stderr, "bench:", err)
		return 2
	}
	defer cleanUp()

	h := &b.res.Header
	h.Seed, h.Reps, h.Nproc = b.o.seed, b.o.reps, runtime.NumCPU()
	h.GOMAXPROCS, h.GoVersion = childGOMAXPROCS, runtime.Version()
	h.Started = time.Now().UTC().Format(time.RFC3339)
	h.Commit = "unknown" // the driver's checkout is not a git repository
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	for _, w := range b.sel {
		h.Workloads = append(h.Workloads, w.name)
	}

	b.root = b.log.begin(0, "bench")
	b.timed()
	if b.perLayer {
		b.layers()
	}
	b.traced()
	b.log.end(b.root)

	b.report()
	if b.o.out != "" {
		if err := writeJSON(b.o.out, b.res); err != nil {
			b.problem("write %s: %v", b.o.out, err)
		}
	}
	spans := b.o.spans
	if spans == "" && b.driver() && b.perLayer {
		spans = filepath.Join(root, buildDir, "spans-"+b.sel[0].name+".json")
	}
	if spans != "" {
		if err := b.log.write(spans); err != nil {
			b.problem("write %s: %v", spans, err)
		}
	}
	if b.driver() {
		b.resultLine()
	}
	if len(b.res.Problems) > 0 {
		fmt.Fprintf(b.stderr, "bench: %d integrity problems\n", len(b.res.Problems))
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// timed runs the reps host metrics come from: tracing off, one fresh child
// per rep, round-robin across workloads so that slow machine drift spreads
// over all of them.
func (b *bench) timed() {
	phase := b.log.begin(b.root, "timed")
	defer b.log.end(phase)
	start := time.Now()
	for rep := 0; b.wantRep(rep, time.Since(start)); rep++ {
		for _, w := range b.sel {
			b.child(phase, w, "timed", rep, w.argv(b.o.seed, b.o.div), w.kind)
		}
	}
}

func (b *bench) wantRep(done int, elapsed time.Duration) bool {
	switch {
	case !b.driver():
		return done < b.o.reps
	case done < minReps:
		return true
	case b.o.trace == 1:
		// The per-layer run needs the timed reps only as the base of the
		// tracing overhead.
		return false
	}
	// One more rep while it is expected to end nearer the budget than the
	// reps so far do.
	perRep := elapsed / time.Duration(done)
	return elapsed+perRep/2 < b.o.budget
}

// child runs one process for a workload, counts its operations, and files
// it in the results. It returns nil when the child could not be run or its
// output could not be read, which is an integrity problem and fails every
// operation of the rep.
func (b *bench) child(parent int, w *workload, role string, rep int, c child, k kind) *sample {
	s := sample{Workload: w.name, Role: role, Rep: rep, SpinMS: spin()}
	r, err := b.rn.start(c, w.status, w.statusOnStdout)
	if err != nil {
		b.problem("%s %s rep %d: %v", w.name, role, rep, err)
		return nil
	}
	s.Run = r
	id := b.log.hostAt(parent, fmt.Sprintf("%s/%s/%d", w.name, role, rep), r.start, r.start.Add(time.Duration(r.WallS*float64(time.Second))))
	r.span = id
	if r.FirstStatusS >= 0 {
		at := func(sec float64) time.Time { return r.start.Add(time.Duration(sec * float64(time.Second))) }
		b.log.hostAt(id, "setup", r.start, at(r.FirstStatusS))
		b.log.hostAt(id, "run", at(r.FirstStatusS), at(r.LastStatusS))
		b.log.hostAt(id, "tail", at(r.LastStatusS), at(r.WallS))
	}
	s.Attempted, s.Failed, err = b.count(k, c, r)
	if err != nil {
		s.Failed = s.Attempted
		b.problem("%s %s rep %d (%s): %v; stderr ends: %q", w.name, role, rep, strings.Join(r.Argv, " "), err, tail(r.stderr, 300))
	}
	b.res.Samples = append(b.res.Samples, s)
	if err != nil {
		return nil
	}
	return &s
}

func tail(p []byte, n int) string {
	if len(p) > n {
		p = p[len(p)-n:]
	}
	return string(p)
}

// count reads how many operations a child of the given kind attempted and
// how many failed verification. Consistency violations are failed
// operations, not errors: the error is for output that cannot be read at
// all, in which case attempted is the size the child was asked for.
func (b *bench) count(k kind, c child, r *Run) (attempted, failed int64, err error) {
	switch k {
	case kindService:
		o, err := parseServe(r.stdout, r.stderr, r.Exit)
		if err != nil {
			return max(int64(argInt(c.args, "-ops")), 1), 0, err
		}
		return o.ops, o.violations, nil
	case kindTorture:
		o, err := parseTorture(r.stdout, r.Exit)
		if err != nil {
			return max(o.replays, 1), 0, err
		}
		return o.replays, o.violations, nil
	case kindFig7:
		if r.Exit != 0 {
			return fig7Cells, 0, fmt.Errorf("exit %d", r.Exit)
		}
		o, err := parseFig7(r.stdout)
		if err != nil {
			return fig7Cells, 0, err
		}
		if o.numeric > fig7Cells {
			return fig7Cells, 0, fmt.Errorf("%d numeric cells, expected %d", o.numeric, fig7Cells)
		}
		return fig7Cells, int64(fig7Cells - o.numeric), nil
	default: // kindAux: one experiment, done or not
		if r.Exit != 0 {
			return 1, 0, fmt.Errorf("exit %d", r.Exit)
		}
		return 1, 0, nil
	}
}

// argInt returns the integer after flag name in args, 0 if absent.
func argInt(args []string, name string) int {
	for i := 0; i+1 < len(args); i++ {
		if args[i] == name {
			n, _ := strconv.Atoi(args[i+1]) // 0 for a value that is no integer, like a missing flag
			return n
		}
	}
	return 0
}
