package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

// declaration mirrors BENCHMARK.json.
type declaration struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readDeclaration(t *testing.T) declaration {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declaration
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		t.Fatal(err)
	}
	return d
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestDeclaration keeps BENCHMARK.json and the metrics this program emits
// in step, inside the limits the driver sets.
func TestDeclaration(t *testing.T) {
	d := readDeclaration(t)
	if want := []string{"bash", "bench/run.sh"}; !reflect.DeepEqual(d.Command, want) {
		t.Errorf("command %q, want %q", d.Command, want)
	}
	if want := []string{"bench"}; !reflect.DeepEqual(d.Paths, want) {
		t.Errorf("paths %q, want %q", d.Paths, want)
	}
	if d.RunSeconds < 1 || d.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", d.RunSeconds)
	}
	if len(d.Workloads) > 8 || len(d.EndToEnd) > 16 || len(d.PerLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics exceed 8/16/128",
			len(d.Workloads), len(d.EndToEnd), len(d.PerLayer))
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not 1 to 64 of [A-Za-z0-9_.-]", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(d.Workloads), len(workloads))
	}
	for i, w := range d.Workloads {
		name(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q, defined as %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	same := func(kind string, got []declaredMetric, want []metric, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%d %s metrics declared, %d emitted", len(got), kind, len(want))
			return
		}
		for i, g := range got {
			w := want[i]
			name(g.Name)
			if !unitRE.MatchString(g.Unit) {
				t.Errorf("%s: unit %q is not 1 to 16 of [A-Za-z0-9_/%%.-]", g.Name, g.Unit)
			}
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s metric %d declared as %s [%s] %s, emitted as %s [%s] %s",
					kind, i, g.Name, g.Unit, g.Better, w.Name, w.Unit, w.Better)
			}
			if g.Better != "lower" && g.Better != "higher" {
				t.Errorf("%s: better is %q", g.Name, g.Better)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != w.Bound || *g.Bound <= 0 || *g.Bound > 0.25):
				t.Errorf("%s: bound %v, want %v, in (0, 0.25]", g.Name, g.Bound, w.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", g.Name)
			}
			for _, on := range w.on {
				if findWorkload(on) == nil {
					t.Errorf("%s is declared on unknown workload %q", w.Name, on)
				}
			}
		}
	}
	gated, unbounded := declared()
	same("end-to-end", d.EndToEnd, gated, true)
	same("per-layer", d.PerLayer, unbounded, false)
	for _, m := range endToEnd {
		if m.Name == "setup_s" {
			if m.Unit != "s" || m.Better != "lower" || m.on != nil {
				t.Errorf("setup_s must be in s, lower is better, on every workload")
			}
			for _, o := range endToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s has bound %v, %s the larger %v", m.Bound, o.Name, o.Bound)
				}
			}
			return
		}
	}
	t.Error("no setup_s metric")
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if q1, q3 := quartiles(v); q1 != 2.75 || q3 != 8.25 || median(v) != 5.5 {
		t.Errorf("quartiles %v %v median %v, want 2.75 8.25 5.5", q1, q3, median(v))
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of three: %v %v, want 1 3", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of two: %v %v, want 0.75 2.25", q1, q3)
	}
}

const sampleFig7 = `# Figure 7: unordered_map throughput (Mops/s), interval 2ms (small scale)
system,Insert-only,Balanced,Read-heavy,Read-only
Mprotect,1.027,0.653,1.755,2.659
Soft-dirty bit,1.243,0.977,1.226,2.217
Undo-log,0.873,1.897,2.610,2.776
LMC,0.923,1.960,2.624,2.776
Dali,0.889,1.428,2.705,2.776
NVM-NP,2.296,3.014,2.798,2.776
libcrpm-Default,1.354,2.438,2.713,2.775
libcrpm-Buffered,6.791,12.084,14.407,33.305

# Figure 7: map throughput (Mops/s), interval 2ms (small scale)
system,Insert-only,Balanced,Read-heavy,Read-only
Mprotect,0.168,0.253,0.429,0.479
Soft-dirty bit,0.139,0.167,0.323,0.400
Undo-log,0.178,0.451,0.493,0.500
LMC,0.179,0.456,0.494,0.500
NVM-NP,0.188,0.507,0.500,0.500
libcrpm-Default,0.180,0.482,0.497,0.500
libcrpm-Buffered,1.579,3.453,4.379,5.995

`

func TestParseFig7(t *testing.T) {
	o, err := parseFig7([]byte(sampleFig7))
	if err != nil {
		t.Fatal(err)
	}
	if o.numeric != fig7Cells {
		t.Errorf("%d numeric cells, want %d", o.numeric, fig7Cells)
	}
	if v, ok := o.at("unordered_map", "libcrpm-Default", "Balanced"); !ok || v != 2.438 {
		t.Errorf("libcrpm-Default Balanced = %v %v", v, ok)
	}
	if v, ok := o.at("map", "Soft-dirty bit", "Read-only"); !ok || v != 0.4 {
		t.Errorf("map Soft-dirty bit Read-only = %v %v", v, ok)
	}
	broken := strings.Replace(sampleFig7, "3.014", "NaN", 1)
	if o, err := parseFig7([]byte(broken)); err != nil || o.numeric != fig7Cells-1 {
		t.Errorf("a NaN cell: %d numeric, err %v; want it left out", o.numeric, err)
	}
	if _, err := parseFig7([]byte("nothing here\n")); err == nil {
		t.Error("output without a table parsed")
	}
}

const sampleServe = `== crpmserve: 2 shards x 4 clients, YCSB-A, default/hashmap, pause:2µs, 3000000 ops ==
shard  ops      cuts  epoch  sim-ms    Mops/s  p50-lat-us  p99-lat-us  p999-lat-us  p99-pause-us  p999-pause-us  max-pause-us
-----  -------  ----  -----  --------  ------  ----------  ----------  -----------  ------------  -------------  ------------
0      1500186  4     4      1055.107  1.422   524.288     1048.576    1048.576     4.000         16.000         4349.126
1      1499814  4     4      1055.107  1.421   524.288     1048.576    1048.576     4.000         16.000         4339.758
all    3000000  4            1055.107  2.843               1048.576    1048.576                                  4349.126

== open-loop measurement: target 3000000 ops/s, achieved 2999981 ops/s, 2900000 measured ops (100000 warmup excluded) ==
track    kind    n        p50-us   p95-us   p99-us   p999-us  max-us   mean-us
-------  ------  -------  -------  -------  -------  -------  -------  -------
open     all     2900000  344.064  655.360  688.128  688.128  696.121  341.225
open     read    1449941  344.064  655.360  688.128  688.128  696.121  341.171
service  all     2900000  344.064  655.360  688.128  688.128  696.121  341.201
note: open: latency from each op's intended arrival (queueing behind cut pauses is charged); service: from dispatch

`

func TestParseServe(t *testing.T) {
	o, err := parseServe([]byte(sampleServe), []byte("verification passed: every acked op present, zero violations\n"), 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{344.064, 655.36, 688.128, 688.128, 696.121, 341.225}
	if o.ops != 3000000 || o.violations != 0 || !reflect.DeepEqual(o.open, want) {
		t.Errorf("got %+v, want 3000000 ops and open row %v", o, want)
	}
	if m := achievedRE.FindSubmatch([]byte(sampleServe)); m == nil || string(m[1]) != "2999981" {
		t.Errorf("achieved rate: %q", m)
	}
	o, err = parseServe([]byte(sampleServe), []byte("FAIL: 3 consistency violations:\n  shard 0: verify: x\n"), 1)
	if err != nil || o.violations != 3 {
		t.Errorf("exit 1 with a count: %+v, %v; want 3 violations", o, err)
	}
	for name, c := range map[string]struct {
		stderr string
		exit   int
	}{
		"exit 2":                   {"flag provided but not defined", 2},
		"exit 1 without a count":   {"panic: boom", 1},
		"exit 0 without the line":  {"", 0},
		"killed by a signal (-1)":  {"", -1},
		"exit 0 but table missing": {"verification passed", 0},
	} {
		stdout := sampleServe
		if strings.Contains(name, "table missing") {
			stdout = "garbage\n"
		}
		if _, err := parseServe([]byte(stdout), []byte(c.stderr), c.exit); err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}
}

const sampleTorture = `default    seeded        1575 crash points  0 violations
default    persist-all   1575 crash points  0 violations
buffered   drop-all       516 crash points  0 violations
incll      seeded        1462 crash points  0 violations
incll      persist-all/rot-dead-all  1462 crash points  3 violations
total: 6590 replays
`

func TestParseTorture(t *testing.T) {
	o, err := parseTorture([]byte(sampleTorture), 1)
	if err != nil {
		t.Fatal(err)
	}
	if o != (tortureOut{replays: 3666, incllReplays: 2924, incllViolations: 3}) {
		t.Errorf("got %+v", o)
	}
	if _, err := parseTorture([]byte(sampleTorture), 0); err == nil {
		t.Error("exit 0 with violations parsed")
	}
	if _, err := parseTorture([]byte(strings.Replace(sampleTorture, "total: 6590 replays\n", "", 1)), 1); err == nil {
		t.Error("output without the total line parsed")
	}
	if _, err := parseTorture([]byte(strings.Replace(sampleTorture, "6590", "6591", 1)), 1); err == nil {
		t.Error("a total that is not the sum of the lines parsed")
	}
}

const sampleTrace = `{"displayTimeUnit":"ns","traceEvents":[
{"ph":"M","pid":1,"tid":1,"name":"thread_name","args":{"name":"serve/shard0"}},
{"ph":"X","pid":1,"tid":1,"name":"populate","ts":95.975776,"dur":43045.793500,"args":{"depth":0}},
{"ph":"X","pid":1,"tid":1,"name":"flush","ts":43141.769276,"dur":3944.355000,"args":{"depth":2}},
{"ph":"X","pid":1,"tid":1,"name":"checkpoint","ts":43141.769276,"dur":4339.418328,"args":{"depth":1}},
{"ph":"X","pid":1,"tid":1,"name":"ckpt-pause","ts":43141.769276,"dur":4349.126328,"args":{"depth":0}},
{"ph":"X","pid":1,"tid":1,"name":"cow","ts":47491.435604,"dur":1913.280768,"args":{"depth":1}},
{"ph":"X","pid":1,"tid":1,"name":"flush","ts":56118.437908,"dur":124.250000,"args":{"depth":3}},
{"ph":"X","pid":1,"tid":1,"name":"checkpoint","ts":56118.437908,"dur":134.533328,"args":{"depth":2}},
{"ph":"X","pid":1,"tid":1,"name":"ckpt-pause","ts":56118.437908,"dur":142.148328,"args":{"depth":1}},
{"ph":"X","pid":1,"tid":1,"name":"epoch","ts":47490.895604,"dur":8769.690632,"args":{"depth":0}},
{"ph":"X","pid":1,"tid":1,"name":"ckpt-step","ts":60000.000000,"dur":0.965000,"args":{"depth":0}},
{"ph":"X","pid":1,"tid":1,"name":"ckpt-replay","ts":60010.000000,"dur":2.500000,"args":{"depth":0}},
{"ph":"M","pid":1,"tid":2,"name":"thread_name","args":{"name":"serve/shard0/replica0"}},
{"ph":"X","pid":1,"tid":2,"name":"install","ts":70000.000000,"dur":12.000000,"args":{"depth":0}},
{"ph":"X","pid":1,"tid":2,"name":"ckpt-pause","ts":70100.000000,"dur":9999.000000,"args":{"depth":0}}
]}
`

func TestParseTrace(t *testing.T) {
	spans, err := parseTraceBytes([]byte(sampleTrace))
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 13 {
		t.Fatalf("%d spans, want 13", len(spans))
	}
	// The populate cut and the replica's pause are out; the stop-the-world
	// pause and the two incremental quanta are in.
	if got, want := cutPauses(spans), []float64{0.965, 2.5, 142.148328}; !reflect.DeepEqual(got, want) {
		t.Errorf("cut pauses %v, want %v", got, want)
	}
	if v := nearestRank([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}, 0.95); v != 19 {
		t.Errorf("p95 of 1..20 = %v, want 19", v)
	}
	if us, n := spanTotal(spans, "flush", primaryTrack); n != 2 || us != 3944.355+124.25 {
		t.Errorf("flush total %v over %d spans", us, n)
	}
	if us, n := spanTotal(spans, "install", func(tr string) bool { return strings.Contains(tr, "/replica") }); n != 1 || us != 12 {
		t.Errorf("install total %v over %d spans", us, n)
	}
	log := newSpanLog()
	root := log.begin(0, "child")
	log.importSim(root, spans)
	byName := map[string]span{}
	for _, s := range log.spans {
		byName[fmt.Sprintf("%s@%.6f", s.Name, s.Start)] = s
	}
	pause, epoch := byName["ckpt-pause@0.056118"], byName["epoch@0.047491"]
	if pause.ID == 0 || epoch.ID == 0 || pause.Parent != epoch.ID || pause.Clock != "sim" {
		t.Errorf("the pause inside the epoch: %+v under %+v", pause, epoch)
	}
	if track := log.spans[epoch.Parent-1]; track.Name != "serve/shard0" || track.Parent != root {
		t.Errorf("the epoch's parent is %+v, want the shard's track under the child", track)
	}
}

// fakeCLIs writes shell scripts named like the three CLIs. The service one
// prints a fixed shard table plus whatever extra gives, writes the -json and
// -trace files it is asked for, and exits as told.
func fakeCLIs(t *testing.T, extraStdout, stderr string, exit int) string {
	t.Helper()
	dir := t.TempDir()
	script := `#!/bin/bash
json=""; trace=""
while [ $# -gt 0 ]; do
  case "$1" in -json) json=$2; shift;; -trace) trace=$2; shift;; esac
  shift
done
printf '\r  2048/4096 ops issued\r  4096/4096 ops issued\n' >&2
echo "all    4096  2   1.0  4.0"
` + extraStdout + `
[ -n "$json" ] && echo '{"experiments":[{"tables":[{"metrics":{"serve_total_ops":4096,"serve_violations":VIOLATIONS,"serve_tput_mops":4.0,"serve_cuts":2}}]}]}' > "$json"
[ -n "$trace" ] && echo '{"traceEvents":[{"ph":"M","tid":1,"name":"thread_name","args":{"name":"serve/shard0"}},{"ph":"X","tid":1,"name":"ckpt-pause","ts":5,"dur":2.5,"args":{"depth":1}}]}' > "$trace"
echo '` + stderr + `' >&2
exit ` + fmt.Sprint(exit) + "\n"
	violations := "0"
	if m := serveFail.FindStringSubmatch(stderr); m != nil {
		violations = m[1]
	}
	script = strings.Replace(script, "VIOLATIONS", violations, 1)
	for _, name := range []string{binServe, binTorture, binBench} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(script), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// drive runs the benchmark the way the driver does, on a_closed_stw, and
// returns its exit code, its parsed result line, and its stderr.
func drive(t *testing.T, binDir string, trace int) (int, map[string]any, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	b, err := newBench(options{seed: 1, reps: 1, budget: 100 * time.Millisecond, trace: trace, workloads: "a_closed_stw", div: 20, binDir: binDir}, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	code := b.main()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var result map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &result); err != nil {
		t.Fatalf("last line of stdout is not the result: %v\n%s", err, stdout.String())
	}
	return code, result, stderr.String()
}

func TestViolationsAreCountedNotFatal(t *testing.T) {
	bin := fakeCLIs(t, "", "FAIL: 3 consistency violations:", 1)
	code, result, stderr := drive(t, bin, 0)
	if code != 0 || result["correct"] != true {
		t.Fatalf("exit %d, correct %v; want the run to complete\n%s", code, result["correct"], stderr)
	}
	// Every child, the timed reps and the traced one, attempts 4096
	// operations and fails 3.
	attempted, failed := result["attempted"].(float64), result["failed"].(float64)
	if attempted < 3*4096 || failed*4096 != attempted*3 {
		t.Errorf("attempted %v failed %v, want 3 of every 4096 over at least three children", attempted, failed)
	}
}

func TestChildExitingTwoFailsTheRun(t *testing.T) {
	bin := fakeCLIs(t, "", "flag provided but not defined: -status", 2)
	code, result, stderr := drive(t, bin, 0)
	if code == 0 || result["correct"] != false {
		t.Errorf("exit %d, correct %v; want a failed run", code, result["correct"])
	}
	if !strings.Contains(stderr, "exit 2") {
		t.Errorf("stderr does not name the exit status:\n%s", stderr)
	}
	// Every operation of every rep failed.
	if result["failed"] != result["attempted"] {
		t.Errorf("failed %v of %v attempted, want all", result["failed"], result["attempted"])
	}
}

func TestRepsThatPrintDifferentlyFailTheRun(t *testing.T) {
	bin := fakeCLIs(t, `echo "pid $$"`, "verification passed", 0)
	code, result, stderr := drive(t, bin, 0)
	if code == 0 || result["correct"] != false || !strings.Contains(stderr, "printed other stdout bytes") {
		t.Errorf("exit %d, correct %v; want a failed run that names the stdout difference\n%s", code, result["correct"], stderr)
	}
}

// TestSmoke runs six of the seven workloads at a twentieth of their size
// through the real CLIs, with the traced rep and the ladder, and checks that
// exactly the declared metrics come out, each on the workloads it is
// declared for. paper_fig7 cannot be shrunk (crpmbench has one small scale)
// and is covered by the parser tests above.
func TestSmoke(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	bin := t.TempDir()
	if err := buildCLIs(root, bin, os.Stderr); err != nil {
		t.Fatal(err)
	}
	out, spans := filepath.Join(t.TempDir(), "results.json"), filepath.Join(t.TempDir(), "spans.json")
	var stdout, stderr bytes.Buffer
	o := options{seed: 1, reps: 2, out: out, spans: spans, div: 20, binDir: bin,
		workloads: "a_closed_stw,a_open_inc,crud_incll,split_merge,replica_b,crash_sweep"}
	b, err := newBench(o, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if code := b.main(); code != 0 {
		t.Fatalf("exit %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	for _, w := range b.sel {
		for _, m := range endToEnd {
			_, got := b.e2e[w.name][m.Name]
			if got != m.appliesTo(w.name) {
				t.Errorf("%s: end-to-end %s emitted=%v, declared=%v", w.name, m.Name, got, m.appliesTo(w.name))
			}
			if got && !strings.Contains(stdout.String(), fmt.Sprintf("%-28s %-11s", m.Name, m.Unit)) {
				t.Errorf("%s is not printed with its unit %s", m.Name, m.Unit)
			}
		}
		for name := range b.res.Sim[w.name] {
			if !declaredOn(endToEnd, name, w.name) {
				t.Errorf("%s: undeclared simulated metric %s", w.name, name)
			}
		}
		for _, m := range perLayer {
			if _, got := b.res.Layers[w.name][m.Name]; m.appliesTo(w.name) && !got {
				t.Errorf("%s: per-layer %s not emitted", w.name, m.Name)
			}
		}
		for name := range b.res.Layers[w.name] {
			if !declaredOn(perLayer, name, "") {
				t.Errorf("%s: undeclared per-layer metric %s", w.name, name)
			}
		}
		if a, f := b.totals(w.name); a < 1 || f != 0 {
			t.Errorf("%s: %d operations attempted, %d failed", w.name, a, f)
		}
	}
	// The results file replays: every child's argv is in it, and it
	// compares equal to itself.
	var r results
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatal(err)
	}
	if r.Header.Seed != 1 || r.Header.GoVersion == "" || r.Header.Nproc < 1 || len(r.Samples) < 6*3 {
		t.Errorf("header %+v with %d samples", r.Header, len(r.Samples))
	}
	for _, s := range r.Samples {
		if s.Run == nil || len(s.Argv) < 3 || s.SpinMS <= 0 || s.WallS <= 0 {
			t.Errorf("sample %s/%s/%d is not replayable: %+v", s.Workload, s.Role, s.Rep, s.Run)
		}
	}
	var cmp bytes.Buffer
	if code := compare([]string{out}, []string{out, out}, &cmp, &cmp); code != 0 || !strings.Contains(cmp.String(), "within bound") {
		t.Errorf("a results file against itself: exit %d\n%s", code, cmp.String())
	}
	var log struct{ Spans []span }
	if data, err = os.ReadFile(spans); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &log); err != nil {
		t.Fatal(err)
	}
	clocks := map[string]int{}
	for _, s := range log.Spans {
		clocks[s.Clock]++
		if s.End < s.Start || s.Parent >= s.ID && s.Clock == "host" {
			t.Errorf("span %+v", s)
		}
	}
	if clocks["host"] < 50 || clocks["sim"] < 50 {
		t.Errorf("span file holds %v spans, want host and simulated ones", clocks)
	}
}

func declaredOn(ms []metric, name, workload string) bool {
	for _, m := range ms {
		if m.Name == name {
			return workload == "" || m.appliesTo(workload)
		}
	}
	return false
}

// TestResultLine checks the one-line result the driver reads carries exactly
// the declared names, whatever the workload.
func TestResultLine(t *testing.T) {
	bin := fakeCLIs(t, "", "verification passed", 0)
	gated, unbounded := declared()
	for trace, want := range [][]metric{gated, unbounded} {
		code, result, stderr := drive(t, bin, trace)
		if code != 0 {
			t.Fatalf("trace %d: exit %d\n%s", trace, code, stderr)
		}
		got := result["metrics"].(map[string]any)
		if len(got) != len(want) {
			t.Errorf("trace %d: %d metrics, want %d", trace, len(got), len(want))
		}
		for _, m := range want {
			v, ok := got[m.Name].(map[string]any)
			if !ok || v["unit"] != m.Unit {
				t.Errorf("trace %d: %s is %v, want unit %s", trace, m.Name, got[m.Name], m.Unit)
			} else if trace == 0 && v["value"] == 0.0 {
				t.Errorf("end-to-end %s is 0", m.Name)
			}
		}
		if len(result) != 4 {
			t.Errorf("result has keys %v, want correct, attempted, failed, metrics", result)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(walls ...float64) *side {
		s := &side{host: map[string]map[string][]float64{"a_closed_stw": {"host_wall_s": walls}},
			sim:       map[string]map[string][]float64{"a_closed_stw": {"sim_mops": {4.2, 4.2}}},
			attempted: map[string]int64{"a_closed_stw": 100}, failed: map[string]int64{}}
		return s
	}
	for _, c := range []struct {
		name         string
		base, change *side
		code         int
		word         string
	}{
		{"same", mk(3.0, 3.02, 3.04, 2.98, 3.01), mk(3.01, 3.0, 3.03, 2.99, 3.02), 0, "within bound"},
		{"slower", mk(3.0, 3.02, 3.04, 2.98, 3.01), mk(4.0, 4.02, 3.98, 4.01, 4.0), 1, "WORSE"},
		{"faster", mk(3.0, 3.02, 3.04, 2.98, 3.01), mk(2.0, 2.02, 1.98, 2.01, 2.0), 0, "better"},
		{"noisy", mk(2.0, 3.0, 4.0, 2.5, 3.5), mk(2.1, 3.1, 3.9, 2.6, 3.4), 0, "unresolved"},
	} {
		var out bytes.Buffer
		if code := compareSides(c.base, c.change, &out); code != c.code || !strings.Contains(out.String(), c.word) {
			t.Errorf("%s: exit %d, want %d and verdict %q\n%s", c.name, code, c.code, c.word, out.String())
		}
	}
	worse := mk(3.0, 3.0, 3.0)
	worse.failed["a_closed_stw"] = 1
	var out bytes.Buffer
	if code := compareSides(mk(3.0, 3.0, 3.0), worse, &out); code != 1 || !strings.Contains(out.String(), "LARGER") {
		t.Errorf("a larger failed share: exit %d\n%s", code, out.String())
	}
}
