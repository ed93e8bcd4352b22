// Package harness regenerates every table and figure of the paper's
// evaluation (§5) on the simulated NVM substrate: the Figure 1 breakdown,
// the Figure 7/9/10 throughput studies, Table 1's checkpoint-size and fence
// counts, the Figure 8 parallel-application overheads, and the §5.5/§5.6
// recovery-time and storage-cost reports. Each experiment returns a Table
// that prints the same rows or series the paper reports; absolute values are
// simulator units, shapes are comparable.
package harness

import (
	"fmt"
	"strings"
	"time"

	"libcrpm/internal/alloc"
	"libcrpm/internal/baselines/dali"
	"libcrpm/internal/baselines/fti"
	"libcrpm/internal/baselines/lmc"
	"libcrpm/internal/baselines/mprotect"
	"libcrpm/internal/baselines/nvmnp"
	"libcrpm/internal/baselines/softdirty"
	"libcrpm/internal/baselines/undolog"
	"libcrpm/internal/ckpt"
	"libcrpm/internal/core"
	"libcrpm/internal/heap"
	"libcrpm/internal/incll"
	"libcrpm/internal/nvm"
	"libcrpm/internal/obs"
	"libcrpm/internal/pds"
	"libcrpm/internal/region"
	"libcrpm/internal/workload"
)

// Table is a printable experiment result. Its JSON form is its entry in the
// perf trajectory: the title and the metrics.
type Table struct {
	Title  string     `json:"title"`
	Header []string   `json:"-"`
	Rows   [][]string `json:"-"`
	Notes  []string   `json:"-"`
	// Metrics holds machine-readable scalars (simulated-clock totals,
	// checkpoint bytes per op) for the -json perf trajectory. They are
	// deliberately excluded from CSV and String so the printed output stays
	// byte-identical across runs that do or don't collect them.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Experiment is one entry of a perf trajectory's "experiments" list, the one
// schema crpmbench's BENCH_<scale>.json and crpmserve's -json file share so
// that the files diff against each other.
type Experiment struct {
	Name string `json:"name"`
	// WallMS is crpmbench's wall-clock per experiment; crpmserve's file
	// carries none, so it is byte-identical across runs.
	WallMS *float64 `json:"wall_ms,omitempty"`
	Tables []Table  `json:"tables"`
}

// AddMetric records one machine-readable scalar on the table.
func (t *Table) AddMetric(name string, v float64) {
	if t.Metrics == nil {
		t.Metrics = make(map[string]float64)
	}
	t.Metrics[name] = v
}

// CSV renders the table as RFC-4180-ish comma-separated values (one header
// row, then data rows; notes become trailing comment lines).
func (t Table) CSV() string {
	var b strings.Builder
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return "\"" + strings.ReplaceAll(s, "\"", "\"\"") + "\""
		}
		return s
	}
	row := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(esc(c))
		}
		b.WriteByte('\n')
	}
	row(t.Header)
	for _, r := range t.Rows {
		row(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	return b.String()
}

// String renders the table as aligned text.
func (t Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Scale sizes the experiments. The paper runs 24M keys / 5M ops / 128 ms
// epochs on Optane hardware; the simulator defaults are laptop-sized with
// the same structure (EXPERIMENTS.md records the mapping).
type Scale struct {
	Name string
	// Data-structure experiments.
	Keys     uint64
	Ops      int
	HeapSize int
	Buckets  int
	Interval time.Duration
	// Parallel-application experiments.
	Ranks     int
	AppItersS int // iterations, small dataset
	AppItersL int // iterations, large dataset
	EdgeSmall int // LULESH edge / HPCCG xy / CoMD cells, small dataset
	EdgeLarge int
	CkptEvery int
	AppHeap   int
}

// SmallScale finishes in seconds; used by tests and the default benches.
func SmallScale() Scale {
	return Scale{
		Name:     "small",
		Keys:     100_000,
		Ops:      120_000,
		HeapSize: 16 << 20,
		Buckets:  1 << 17,
		Interval: 2 * time.Millisecond,
		Ranks:    4, AppItersS: 10, AppItersL: 10,
		EdgeSmall: 8, EdgeLarge: 12, CkptEvery: 5,
		AppHeap: 8 << 20,
	}
}

// PaperScale mirrors the paper's experimental parameters exactly: 24 M
// keys, 5 M operations, 128 ms epochs, 8 processes, 90³/110³ LULESH meshes.
// It needs on the order of 10 GB of RAM (the simulated device holds two
// copies of a multi-GB heap) and hours of wall time; use it to verify scale
// trends, not for routine runs.
func PaperScale() Scale {
	return Scale{
		Name:     "paper",
		Keys:     24_000_000,
		Ops:      5_000_000,
		HeapSize: 2 << 30,
		Buckets:  1 << 25,
		Interval: 128 * time.Millisecond,
		Ranks:    8, AppItersS: 50, AppItersL: 50,
		EdgeSmall: 90, EdgeLarge: 110, CkptEvery: 5,
		AppHeap: 64 << 20,
	}
}

// MediumScale is the default for the CLI harness: minutes, clearer
// separation between systems.
func MediumScale() Scale {
	return Scale{
		Name:     "medium",
		Keys:     500_000,
		Ops:      600_000,
		HeapSize: 64 << 20,
		Buckets:  1 << 19,
		Interval: 8 * time.Millisecond,
		Ranks:    8, AppItersS: 20, AppItersL: 20,
		EdgeSmall: 12, EdgeLarge: 18, CkptEvery: 5,
		AppHeap: 16 << 20,
	}
}

// DSKind selects the data structure under test.
type DSKind = pds.Kind

// The two structures of §5.2.1.
const (
	DSHashMap = pds.KindHashMap
	DSRBMap   = pds.KindRBMap
)

// DSSystems lists the systems of Figure 7 in the paper's order. Dalí exists
// only for the hash map.
func DSSystems(kind DSKind) []string {
	s := []string{"Mprotect", "Soft-dirty bit", "Undo-log", "LMC"}
	if kind == DSHashMap {
		s = append(s, "Dali")
	}
	return append(s, "NVM-NP", "libcrpm-Default", "libcrpm-Buffered")
}

// DSSetup is one system+structure instance ready to drive.
type DSSetup struct {
	System string
	KV     pds.KV
	Dev    *nvm.Device
	// Checkpoint ends an epoch on this system.
	Checkpoint func() error
	// Backend is nil for Dalí (its persistence is inside the structure).
	Backend ckpt.Backend
	// Rec is the cell's phase recorder, created by NewDSSetup when harness
	// tracing is on (nil otherwise). It reads the cell's simulated clock and
	// is attached to the backend when the backend is obs.Traceable.
	Rec *obs.Recorder
}

// Geometry overrides for the Figure 10 sweeps; zero values use defaults.
type Geometry struct {
	SegmentSize int
	BlockSize   int
}

// NewDSSetup builds a system+structure instance.
func NewDSSetup(system string, kind DSKind, sc Scale, geo Geometry) (*DSSetup, error) {
	if system == "Dali" {
		if kind != DSHashMap {
			return nil, fmt.Errorf("harness: Dalí implements only the hash map")
		}
		m, err := dali.New(dali.Config{Buckets: sc.Buckets, Capacity: int(sc.Keys)*2 + sc.Ops})
		if err != nil {
			return nil, err
		}
		s := &DSSetup{System: system, KV: m, Dev: m.Device(), Checkpoint: m.EpochPersist}
		if Tracing() {
			// Dalí has no ckpt.Backend to instrument, but the driver-level
			// epoch spans and per-epoch stat deltas still apply.
			s.Rec = obs.NewRecorder(s.Dev.Clock())
		}
		return s, nil
	}
	b, err := newBackend(system, sc.HeapSize, geo)
	if err != nil {
		return nil, err
	}
	return newSetup(system, b, kind, sc)
}

// newBackend is the one place a system's name becomes its checkpoint backend,
// over heapSize bytes on a fresh device of its own (Dalí has none: its
// persistence is inside the structure). geo applies to the libcrpm systems.
func newBackend(system string, heapSize int, geo Geometry) (ckpt.Backend, error) {
	switch system {
	case "Mprotect":
		return mprotect.New(heapSize)
	case "Soft-dirty bit":
		return softdirty.New(heapSize)
	case "Undo-log":
		return undolog.New(heapSize)
	case "LMC":
		return lmc.New(heapSize)
	case "NVM-NP":
		return nvmnp.New(heapSize), nil
	case "FTI":
		return fti.New(fti.Config{HeapSize: heapSize})
	case "InCLL":
		return incll.New(heapSize)
	case "libcrpm-Default", "libcrpm-Buffered":
		mode := core.ModeDefault
		if system == "libcrpm-Buffered" {
			mode = core.ModeBuffered
		}
		return newContainer(heapSize, core.Options{Region: region.Config{SegmentSize: geo.SegmentSize, BlockSize: geo.BlockSize}, Mode: mode})
	default:
		return nil, fmt.Errorf("harness: unknown system %q", system)
	}
}

// newContainer formats a libcrpm container over heapSize bytes on a fresh
// device of its own; a zero BackupRatio means a backup for every segment.
func newContainer(heapSize int, opts core.Options) (*core.Container, error) {
	opts.Region.HeapSize = heapSize
	if opts.Region.BackupRatio == 0 {
		opts.Region.BackupRatio = 1
	}
	l, err := region.NewLayout(opts.Region)
	if err != nil {
		return nil, err
	}
	return core.NewContainer(nvm.NewDevice(l.DeviceSize()), opts)
}

// newSetup finishes a setup over backend b: the allocator, the structure and,
// when harness tracing is on, the cell's recorder.
func newSetup(system string, b ckpt.Backend, kind DSKind, sc Scale) (*DSSetup, error) {
	a, err := alloc.Format(heap.New(b))
	if err != nil {
		return nil, err
	}
	kv, err := pds.Bind(a, kind, 0, sc.Buckets)
	if err != nil {
		return nil, err
	}
	s := &DSSetup{
		System:     system,
		KV:         kv,
		Dev:        b.Device(),
		Checkpoint: b.Checkpoint,
		Backend:    b,
	}
	if Tracing() {
		s.Rec = obs.NewRecorder(s.Dev.Clock())
		if tb, ok := b.(obs.Traceable); ok {
			tb.SetTrace(s.Rec)
		}
	}
	return s, nil
}

// Driver wires a setup to the workload generator.
func (s *DSSetup) Driver(sc Scale, seed int64) *workload.Driver {
	return &workload.Driver{
		KV:         s.KV,
		Clock:      s.Dev.Clock(),
		Checkpoint: s.Checkpoint,
		Interval:   sc.Interval,
		Zipf:       workload.NewZipfian(sc.Keys, 0.99),
		Rng:        newRng(seed),
		Trace:      s.Rec,
		Device:     s.Dev,
	}
}

// startRun brings a fresh setup to where a measured run of mix starts and
// returns its driver: populated with the scale's keys or, for the insert-only
// mix, which the paper starts empty, with the empty structure checkpointed.
func (s *DSSetup) startRun(sc Scale, seed int64, mix workload.Mix) (*workload.Driver, error) {
	d := s.Driver(sc, seed)
	if mix.InsertOnly {
		d.Keys = 1 // placeholder; insert-only never draws existing keys
		return d, d.Checkpoint()
	}
	return d, d.Populate(sc.Keys)
}

// counters is what a cell can read off its setup at one instant: the device's
// counters, the backend's (zero for Dalí, which has none), the simulated clock
// and its per-category split.
type counters struct {
	dev   nvm.Stats
	ckpt  ckpt.Metrics
	nowPS int64
	catPS [nvm.NumCategories]int64
}

func (s *DSSetup) counters() counters {
	clock := s.Dev.Clock()
	c := counters{dev: s.Dev.Stats(), nowPS: clock.NowPS()}
	if s.Backend != nil {
		c.ckpt = s.Backend.Metrics()
	}
	for cat := range c.catPS {
		c.catPS[cat] = clock.CategoryPS(nvm.Category(cat))
	}
	return c
}

// since returns what accrued between the earlier reading o and c.
func (c counters) since(o counters) counters {
	d := counters{dev: c.dev.Sub(o.dev), ckpt: c.ckpt.Sub(o.ckpt), nowPS: c.nowPS - o.nowPS}
	for cat := range d.catPS {
		d.catPS[cat] = c.catPS[cat] - o.catPS[cat]
	}
	return d
}

// measured is one measured run, the record a figure's cell expression reads:
// the driver's result, what the setup's counters accrued — total from before
// the load, run from after it — and the cell's recorder. It holds numbers and
// never the setup: a sweep keeps every cell's record until the table is laid
// out, and a setup keeps a simulated device alive (embedding it took Figure
// 7's 32-cell grid from ~0.6 to ~2.7 GiB peak RSS).
type measured struct {
	workload.Result
	total, run counters
	rec        *obs.Recorder
}

// measure loads the setup for mix (startRun) and runs the scale's operations.
func (s *DSSetup) measure(sc Scale, seed int64, mix workload.Mix) (measured, error) {
	before := s.counters()
	d, err := s.startRun(sc, seed, mix)
	if err != nil {
		return measured{}, err
	}
	loaded := s.counters()
	res, err := d.Run(mix, sc.Ops)
	if err != nil {
		return measured{}, err
	}
	end := s.counters()
	return measured{Result: res, total: end.since(before), run: end.since(loaded), rec: s.Rec}, nil
}

// measureSystem is measure on a fresh setup of the named system.
func measureSystem(system string, kind DSKind, sc Scale, geo Geometry, seed int64, mix workload.Mix) (measured, error) {
	s, err := NewDSSetup(system, kind, sc, geo)
	if err != nil {
		return measured{}, err
	}
	return s.measure(sc, seed, mix)
}

// perEpoch spreads v over the run's epochs; a run that crossed no epoch
// boundary counts as one.
func (m measured) perEpoch(v float64) float64 { return v / float64(max(m.Epochs, 1)) }

// mops is the cell most figures print: throughput in Mops/s.
func mops(m measured) string { return fmtF(m.Throughput/1e6, 3) }

func fmtF(v float64, prec int) string { return fmt.Sprintf("%.*f", prec, v) }

func fmtDur(d time.Duration) string { return d.Round(time.Microsecond).String() }
