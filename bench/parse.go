package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// tables reads the trajectory schema `crpmserve -json FILE` and `crpmbench
// -json` share (experiments -> tables -> metrics) into one map. Metric names
// are unique across the tables of the runs this benchmark makes.
func tables(path string) (map[string]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		Experiments []struct {
			Tables []struct {
				Metrics map[string]float64 `json:"metrics"`
			} `json:"tables"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]float64{}
	for _, e := range doc.Experiments {
		for _, t := range e.Tables {
			for k, v := range t.Metrics {
				out[k] = v
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no metrics", path)
	}
	return out, nil
}

// serveOut is what an untraced crpmserve run tells on its two streams.
type serveOut struct {
	ops        int64 // the "all" row of the shard table
	violations int64
	// open holds the "open / all" row of the measurement table in
	// simulated microseconds (p50, p95, p99, p999, max, mean); nil on a
	// closed-loop run. The -json file omits p50, so it is read here.
	open []float64
}

var serveFail = regexp.MustCompile(`FAIL: (\d+) consistency violations`)

func parseServe(stdout, stderr []byte, exit int) (serveOut, error) {
	var o serveOut
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	found := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		switch {
		case len(f) >= 3 && f[0] == "all" && !found:
			n, err := strconv.ParseInt(f[1], 10, 64)
			if err != nil {
				return o, fmt.Errorf("shard table: ops %q: %w", f[1], err)
			}
			o.ops, found = n, true
		case len(f) == 9 && f[0] == "open" && f[1] == "all":
			for _, s := range f[3:] {
				v, err := strconv.ParseFloat(s, 64)
				if err != nil {
					return o, fmt.Errorf("measurement table: %q: %w", s, err)
				}
				o.open = append(o.open, v)
			}
		}
	}
	if !found {
		return o, fmt.Errorf("no \"all\" row in the shard table")
	}
	switch exit {
	case 0:
		if !bytes.Contains(stderr, []byte("verification passed")) {
			return o, fmt.Errorf("exit 0 without the verification line")
		}
	case 1:
		m := serveFail.FindSubmatch(stderr)
		if m == nil {
			return o, fmt.Errorf("exit 1 without a violation count")
		}
		o.violations, _ = strconv.ParseInt(string(m[1]), 10, 64) // the pattern admits digits only
	default:
		return o, fmt.Errorf("exit %d", exit)
	}
	return o, nil
}

// tortureOut is the crpmtorture report: replays made and shadow-diff
// violations found, for the three libcrpm modes and for InCLL apart. The
// benchmark's crash_sweep counts the libcrpm modes only: InCLL replays fail
// verification on most seeds at the commit that added this benchmark, and
// the driver wants workloads on which no operation fails. The InCLL count
// is reported as a per-layer metric instead.
type tortureOut struct {
	replays, violations           int64
	incllReplays, incllViolations int64
}

var (
	tortureLine  = regexp.MustCompile(`^(\S+)\s+\S+\s+(\d+) crash points\s+(\d+) violations$`)
	tortureTotal = regexp.MustCompile(`^total: (\d+) replays$`)
)

func parseTorture(stdout []byte, exit int) (tortureOut, error) {
	var o tortureOut
	total := int64(-1)
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	for sc.Scan() {
		if m := tortureLine.FindStringSubmatch(sc.Text()); m != nil {
			p, _ := strconv.ParseInt(m[2], 10, 64) // digits only
			v, _ := strconv.ParseInt(m[3], 10, 64)
			if m[1] == "incll" {
				o.incllReplays += p
				o.incllViolations += v
			} else {
				o.replays += p
				o.violations += v
			}
		} else if m := tortureTotal.FindStringSubmatch(sc.Text()); m != nil {
			total, _ = strconv.ParseInt(m[1], 10, 64)
		}
	}
	switch {
	case total < 0:
		return o, fmt.Errorf("no \"total: N replays\" line")
	case total != o.replays+o.incllReplays:
		return o, fmt.Errorf("total says %d replays, the lines sum to %d", total, o.replays+o.incllReplays)
	case exit != 0 && exit != 1:
		return o, fmt.Errorf("exit %d", exit)
	case (exit == 1) != (o.violations+o.incllViolations > 0):
		return o, fmt.Errorf("exit %d with %d violations", exit, o.violations+o.incllViolations)
	}
	return o, nil
}

// fig7Out is the CSV of `crpmbench -exp fig7`: cell[structure][system][mix]
// in simulated Mops/s.
type fig7Out struct {
	cell    map[string]map[string]map[string]float64
	numeric int
}

var fig7Title = regexp.MustCompile(`^# Figure 7: (\S+) throughput`)

func parseFig7(stdout []byte) (fig7Out, error) {
	o := fig7Out{cell: map[string]map[string]map[string]float64{}}
	var ds string
	var mixes []string
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	for sc.Scan() {
		line := sc.Text()
		if m := fig7Title.FindStringSubmatch(line); m != nil {
			ds, mixes = m[1], nil
			o.cell[ds] = map[string]map[string]float64{}
			continue
		}
		if ds == "" || line == "" {
			continue
		}
		f := strings.Split(line, ",")
		if f[0] == "system" {
			mixes = f[1:]
			continue
		}
		if len(f) != len(mixes)+1 {
			return o, fmt.Errorf("fig7 %s row %q: %d fields under %d columns", ds, line, len(f), len(mixes)+1)
		}
		row := map[string]float64{}
		for i, s := range f[1:] {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
				continue // counted as a failed cell by the caller
			}
			row[mixes[i]] = v
			o.numeric++
		}
		o.cell[ds][f[0]] = row
	}
	if len(o.cell) == 0 {
		return o, fmt.Errorf("no Figure 7 table in the output")
	}
	return o, nil
}

func (o fig7Out) at(ds, system, mix string) (float64, bool) {
	v, ok := o.cell[ds][system][mix]
	return v, ok
}

// simSpan is one span of a CLI's -trace file (Chrome trace-event JSON):
// simulated microseconds on the named track.
type simSpan struct {
	Track    string
	Name     string
	StartUS  float64
	DurUS    float64
	Depth    int
	populate bool // the ckpt-pause that ends a shard's populate phase
}

func parseTrace(path string) ([]simSpan, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseTraceBytes(b)
}

func parseTraceBytes(b []byte) ([]simSpan, error) {
	var doc struct {
		TraceEvents []struct {
			Ph   string  `json:"ph"`
			Tid  int     `json:"tid"`
			Name string  `json:"name"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Args struct {
				Name  string `json:"name"`
				Depth int    `json:"depth"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("trace file: %w", err)
	}
	tracks := map[int]string{}
	afterPopulate := map[int]bool{}
	var out []simSpan
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			tracks[e.Tid] = e.Args.Name
		case "X":
			s := simSpan{Track: tracks[e.Tid], Name: e.Name, StartUS: e.Ts, DurUS: e.Dur, Depth: e.Args.Depth}
			// Spans are written as they end, so the populate cut is the
			// first ckpt-pause after its track's populate span.
			if e.Name == "populate" {
				afterPopulate[e.Tid] = true
			} else if e.Name == "ckpt-pause" && afterPopulate[e.Tid] {
				s.populate = true
				afterPopulate[e.Tid] = false
			}
			out = append(out, s)
		}
	}
	return out, nil
}

// primaryTrack is true for a shard's own track and false for its replicas'.
func primaryTrack(track string) bool {
	return strings.HasPrefix(track, "serve/shard") && !strings.Contains(track, "/replica")
}

// pauseSpans are the span names during which checkpoint work stalls the
// serving loop: the stop-the-world pause, and the quanta the incremental
// pipeline interleaves between request batches.
var pauseSpans = map[string]bool{"ckpt-pause": true, "ckpt-step": true, "ckpt-replay": true}

// cutPauses returns the sorted durations of every stall of a primary's
// serving loop, each shard's populate cut excluded.
func cutPauses(spans []simSpan) []float64 {
	var d []float64
	for _, s := range spans {
		if pauseSpans[s.Name] && !s.populate && primaryTrack(s.Track) {
			d = append(d, s.DurUS)
		}
	}
	sort.Float64s(d)
	return d
}

// spanTotal sums the spans of one name over the tracks keep accepts.
func spanTotal(spans []simSpan, name string, keep func(track string) bool) (totalUS float64, n int) {
	for _, s := range spans {
		if s.Name == name && keep(s.Track) {
			totalUS += s.DurUS
			n++
		}
	}
	return totalUS, n
}

// nearestRank returns the q-quantile of sorted values, the smallest value
// with at least q of the sample at or below it.
func nearestRank(sorted []float64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}
