package harness

import (
	"fmt"
	"time"

	"libcrpm/internal/core"
	"libcrpm/internal/obs"
	"libcrpm/internal/server"
	"libcrpm/internal/workload"
)

// servicePauseBudget is the per-quantum pause budget the incremental
// backends run under; it lands the budgeted p99 pause several histogram
// buckets below the interval policy's stop-the-world commits at every
// shard count.
const servicePauseBudget = 2 * time.Microsecond

// serviceSetup is one row group of a service figure: what the table calls it
// and what it changes in the base configuration (a nil policy keeps the
// scale's interval policy).
type serviceSetup struct {
	name    string
	backend string
	mode    core.Mode
	policy  server.Policy
}

// serviceConfig is the configuration every service figure starts from and
// amends only where it differs: YCSB-A over the scale's keys and operations,
// two clients per shard, the scale's data volume split over the shards, the
// scale's interval policy, seed 11, and the setup's backend and cut policy.
func serviceConfig(sc Scale, shards int, st serviceSetup) server.Config {
	heap, buckets := perShardGeometry(sc, shards)
	cfg := server.Config{
		Shards:   shards,
		Clients:  2 * shards,
		Mix:      workload.YCSBA,
		Ops:      sc.Ops,
		Keys:     sc.Keys,
		HeapSize: heap,
		Buckets:  buckets,
		Backend:  st.backend,
		Mode:     st.mode,
		Policy:   server.IntervalPolicy{Every: sc.Interval},
		Seed:     11,
	}
	if st.policy != nil {
		cfg.Policy = st.policy
	}
	return cfg
}

// served is one service cell's record: the values of the figure's metrics, in
// the figure's order, and the shards' trace tracks (none when the cell ran
// untraced). Like measured it holds numbers, never the service.
type served struct {
	vals   []float64
	tracks []obs.Track
}

// metric is one quantity a service figure reports per cell: its row label,
// the key its values are booked under and the precision it prints at.
type metric struct {
	label, key string
	prec       int
}

// addMetricRows lays out one setup's cells: one row per metric — the setup's
// name, the metric's label, a value per column — with every value booked as
// key/name/column.
func (t *Table) addMetricRows(name string, metrics []metric, cols []string, cells []served) {
	for k, m := range metrics {
		row := []string{name, m.label}
		for i, col := range cols {
			row = append(row, fmtF(cells[i].vals[k], m.prec))
			t.AddMetric(m.key+"/"+name+"/"+col, cells[i].vals[k])
		}
		t.Rows = append(t.Rows, row)
	}
}

// ServiceFigure is the sharded-service scaling study (extension): YCSB-A
// throughput and p99 coordinated-cut pause as the shard count grows, for
// both libcrpm container modes. Every (backend, shard-count) pair is one
// independent cell running the full service — populate, batched serving
// with the interval cut policy, shadow verification — on its own set of
// simulated devices. Per-shard heap and buckets shrink with the shard
// count so the aggregate data volume stays fixed, as a real scale-out
// deployment's would.
func ServiceFigure(sc Scale) (Table, error) {
	t := Table{
		Title: fmt.Sprintf("Service: YCSB-A throughput (Mops/s) and p99 cut pause (µs) vs shard count (%s scale)", sc.Name),
		Notes: []string{
			"sharded KV service, coordinated cuts on the paper's interval policy; pause includes commit plus barrier wait",
			fmt.Sprintf("-inc rows run the incremental cut pipeline under pause:%s, interleaving budgeted checkpoint quanta with request batches", servicePauseBudget),
		},
	}
	return shardScaling(sc, t, "service", []int{1, 2, 4, 8}, []serviceSetup{
		{name: "libcrpm-Default", mode: core.ModeDefault},
		{name: "libcrpm-Buffered", mode: core.ModeBuffered},
		{name: "libcrpm-Default-inc", mode: core.ModeDefault, policy: server.NewPausePolicy(servicePauseBudget)},
		{name: "libcrpm-Buffered-inc", mode: core.ModeBuffered, policy: server.NewPausePolicy(servicePauseBudget)},
	}, func(cfg *server.Config) { cfg.Trace = Tracing() })
}

// ServiceBackendFigure runs the full sharded KV service end-to-end on each
// checkpoint backend (extension): YCSB-A throughput and p99 coordinated-cut
// pause as the shard count grows, for both libcrpm container modes and
// InCLL — the crossover economics surviving a real data structure,
// allocator, and cut protocol on top of the raw write path. Half
// ServiceFigure's operations, and untraced.
func ServiceBackendFigure(sc Scale) (Table, error) {
	t := Table{
		Title: fmt.Sprintf("Service backends: YCSB-A throughput (Mops/s) and p99 cut pause (µs) vs shard count (%s scale)", sc.Name),
		Notes: []string{
			"full sharded service (populate, interval cut policy, shadow verification) per cell; pause includes commit plus barrier wait",
			"InCLL commits each cut as an O(1) epoch-tag bump, so its pause is barrier-dominated at every shard count",
		},
	}
	return shardScaling(sc, t, "svcbe", []int{1, 2, 4}, []serviceSetup{
		{name: "libcrpm-Default", mode: core.ModeDefault},
		{name: "libcrpm-Buffered", mode: core.ModeBuffered},
		{name: "InCLL", backend: server.BackendInCLL},
	}, func(cfg *server.Config) { cfg.Ops = sc.Ops / 2 })
}

// shardScaling is the body of both: setups down, shard counts across, one
// full service run per cell, throughput and worst-shard p99 pause out. key
// prefixes the metrics and the trace tracks; amend is the figure's own change
// to every cell's configuration.
func shardScaling(sc Scale, t Table, key string, shardCounts []int, setups []serviceSetup, amend func(*server.Config)) (Table, error) {
	t.Header = []string{"backend", "metric"}
	cols := make([]string, len(shardCounts))
	for i, n := range shardCounts {
		t.Header = append(t.Header, fmt.Sprintf("%d shards", n))
		cols[i] = fmt.Sprint(n)
	}
	cells, err := grid(setups, shardCounts, func(st serviceSetup, n int) (served, error) {
		cfg := serviceConfig(sc, n, st)
		amend(&cfg)
		res, err := runServiceCell(cfg)
		if err != nil {
			return served{}, err
		}
		c := served{vals: []float64{res.ThroughputOps / 1e6, float64(maxShardPauseP99(res)) / 1e6}}
		if res.Trace != nil {
			c.tracks = res.Trace.Tracks
		}
		return c, nil
	})
	if err != nil {
		return t, err
	}
	metrics := []metric{{"throughput", key + "_tput_mops", 3}, {"p99 pause", key + "_p99_pause_us", 1}}
	for si, st := range setups {
		t.addMetricRows(st.name, metrics, cols, cells[si])
		for ni, n := range shardCounts {
			for shard, tr := range cells[si][ni].tracks {
				tr.Label = fmt.Sprintf("%s/%s/%dshards/shard%d", key, st.name, n, shard)
				t.traceTrack(tr)
			}
		}
	}
	return t, nil
}

// perShardGeometry splits the scale's aggregate heap and bucket budget over
// a shard count (with floors), so the data volume stays fixed as the
// service scales out, as a real deployment's would.
func perShardGeometry(sc Scale, shards int) (heap, buckets int) {
	return max(sc.HeapSize/shards, 2<<20), max(sc.Buckets/shards, 1<<10)
}

// runServiceCell runs one service configuration to completion as a figure
// cell and insists on a consistent result. Cell-internal verification is
// serial: the sweep is the parallel layer.
func runServiceCell(cfg server.Config) (*server.Result, error) {
	cfg.Parallel = 1
	svc, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	res, err := svc.Run()
	if err != nil {
		return nil, err
	}
	if !res.OK() {
		return nil, fmt.Errorf("service inconsistent: %v", res.Violations[0])
	}
	return res, nil
}

// maxShardPauseP99 is the worst shard's p99 pause in picoseconds.
func maxShardPauseP99(res *server.Result) int64 {
	var max int64
	for _, st := range res.Shards {
		if st.P99PausePS > max {
			max = st.P99PausePS
		}
	}
	return max
}
