package harness

import (
	"fmt"
	"time"

	"libcrpm/internal/core"
	"libcrpm/internal/obs"
	"libcrpm/internal/sched"
	"libcrpm/internal/server"
	"libcrpm/internal/workload"
)

// servicePauseBudget is the per-quantum pause budget the incremental
// backends run under; it lands the budgeted p99 pause several histogram
// buckets below the interval policy's stop-the-world commits at every
// shard count.
const servicePauseBudget = 2 * time.Microsecond

// ServiceFigure is the sharded-service scaling study (extension): YCSB-A
// throughput and p99 coordinated-cut pause as the shard count grows, for
// both libcrpm container modes. Every (backend, shard-count) pair is one
// independent cell running the full service — populate, batched serving
// with the interval cut policy, shadow verification — on its own set of
// simulated devices. Per-shard heap and buckets shrink with the shard
// count so the aggregate data volume stays fixed, as a real scale-out
// deployment's would.
func ServiceFigure(sc Scale) (Table, error) {
	shardCounts := []int{1, 2, 4, 8}
	backends := []struct {
		name   string
		mode   core.Mode
		policy server.Policy
	}{
		{"libcrpm-Default", core.ModeDefault, nil},
		{"libcrpm-Buffered", core.ModeBuffered, nil},
		{"libcrpm-Default-inc", core.ModeDefault, server.NewPausePolicy(servicePauseBudget)},
		{"libcrpm-Buffered-inc", core.ModeBuffered, server.NewPausePolicy(servicePauseBudget)},
	}
	t := Table{
		Title:  fmt.Sprintf("Service: YCSB-A throughput (Mops/s) and p99 cut pause (µs) vs shard count (%s scale)", sc.Name),
		Header: []string{"backend", "metric"},
		Notes: []string{
			"sharded KV service, coordinated cuts on the paper's interval policy; pause includes commit plus barrier wait",
			fmt.Sprintf("-inc rows run the incremental cut pipeline under pause:%s, interleaving budgeted checkpoint quanta with request batches", servicePauseBudget),
		},
	}
	for _, n := range shardCounts {
		t.Header = append(t.Header, fmt.Sprintf("%d shards", n))
	}
	type cellRes struct {
		tputMops, p99PauseUS float64
		recs                 []*obs.Recorder
	}
	cells, err := sched.MapErr(len(backends)*len(shardCounts), pool(), func(i int) (cellRes, error) {
		be, n := backends[i/len(shardCounts)], shardCounts[i%len(shardCounts)]
		heap, buckets := perShardGeometry(sc, n)
		policy := be.policy
		if policy == nil {
			policy = server.IntervalPolicy{Every: sc.Interval}
		}
		svc, res, err := runServiceCell(fmt.Sprintf("%s/%d shards", be.name, n), server.Config{
			Shards:   n,
			Clients:  2 * n,
			Mix:      workload.YCSBA,
			Ops:      sc.Ops,
			Keys:     sc.Keys,
			HeapSize: heap,
			Buckets:  buckets,
			Mode:     be.mode,
			Policy:   policy,
			Seed:     11,
			Trace:    Tracing(),
		})
		if err != nil {
			return cellRes{}, err
		}
		var recs []*obs.Recorder
		if Tracing() {
			recs = svc.Recorders()
		}
		return cellRes{
			tputMops:   res.ThroughputOps / 1e6,
			p99PauseUS: float64(maxShardPauseP99(res)) / 1e6,
			recs:       recs,
		}, nil
	})
	if err != nil {
		return t, err
	}
	for bi, be := range backends {
		tput := []string{be.name, "throughput"}
		pause := []string{be.name, "p99 pause"}
		for ni, n := range shardCounts {
			c := cells[bi*len(shardCounts)+ni]
			tput = append(tput, fmtF(c.tputMops, 3))
			pause = append(pause, fmtF(c.p99PauseUS, 1))
			t.AddMetric(fmt.Sprintf("service_tput_mops/%s/%d", be.name, n), c.tputMops)
			t.AddMetric(fmt.Sprintf("service_p99_pause_us/%s/%d", be.name, n), c.p99PauseUS)
		}
		t.Rows = append(t.Rows, tput, pause)
	}
	if Tracing() {
		var labels []string
		var recs []*obs.Recorder
		for i, c := range cells {
			be, n := backends[i/len(shardCounts)], shardCounts[i%len(shardCounts)]
			for si, r := range c.recs {
				labels = append(labels, fmt.Sprintf("service/%s/%dshards/shard%d", be.name, n, si))
				recs = append(recs, r)
			}
		}
		collectTraces(&t, labels, recs)
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
func runServiceCell(label string, cfg server.Config) (*server.Service, *server.Result, error) {
	cfg.Parallel = 1
	svc, err := server.New(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", label, err)
	}
	res, err := svc.Run()
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", label, err)
	}
	if !res.OK() {
		return nil, nil, fmt.Errorf("%s: service inconsistent: %v", label, res.Violations[0])
	}
	return svc, res, nil
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
