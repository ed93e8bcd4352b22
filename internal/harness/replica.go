package harness

import (
	"fmt"

	"libcrpm/internal/replica"
	"libcrpm/internal/workload"
)

// ReplicaFigure is the replication study (extension): YCSB-B read
// throughput, mean staleness, and SLA-unmet fraction as the per-shard
// secondary count grows, one row group per read SLA. Every cell is one
// independent replicated service run; the 0-replica column is the shared
// unreplicated baseline (the request stream is identical — replication
// changes only where reads are served). Reads route through the Pileus
// optimizer: stricter SLAs pin more reads to the primary, looser ones
// trade staleness for the cheaper replica RTTs.
func ReplicaFigure(sc Scale) (Table, error) {
	replicaCounts := []int{1, 2, 3}
	slas := []string{"strong", "rmw", "monotonic", "bounded:2", "eventual"}
	const shards = 4
	t := Table{
		Title:  fmt.Sprintf("Replication: YCSB-B read throughput (Mops/s), staleness, and unmet fraction vs replica count x SLA (%s scale)", sc.Name),
		Header: []string{"sla", "metric", "0 replicas"},
		Notes: []string{
			"per-shard secondaries install committed cut deltas asynchronously; reads route to the cheapest replica meeting the SLA",
			"0-replica column is the unreplicated baseline (every read on the primary); staleness and unmet are zero by construction",
		},
	}
	for _, n := range replicaCounts {
		t.Header = append(t.Header, fmt.Sprintf("%d replicas", n))
	}
	type cellRes struct {
		reads        int
		simPS        int64
		readTputMops float64
		staleMean    float64
		unmetFrac    float64
		secFrac      float64
	}
	run := func(spec string, nReplicas int) (cellRes, error) {
		cfg := serviceConfig(sc, shards, serviceSetup{})
		cfg.Mix = workload.YCSBB
		cfg.Replicas = nReplicas
		if nReplicas > 0 {
			set, err := replica.ParseSet(spec)
			if err != nil {
				return cellRes{}, err
			}
			cfg.SLAs = set
		}
		res, err := runServiceCell(cfg)
		if err != nil {
			return cellRes{}, err
		}
		c := cellRes{simPS: res.SimPS, staleMean: res.StaleMeanEpochs}
		for _, st := range res.Shards {
			c.reads += int(st.Reads)
		}
		if res.SimPS > 0 && c.reads > 0 {
			c.readTputMops = float64(c.reads) * 1e12 / float64(res.SimPS) / 1e6
			c.unmetFrac = float64(res.UnmetReads) / float64(c.reads)
			c.secFrac = float64(res.SecReads) / float64(c.reads)
		}
		return c, nil
	}
	baseline, err := run("", 0)
	if err != nil {
		return t, fmt.Errorf("baseline: %w", err)
	}
	cells, err := grid(slas, replicaCounts, run)
	if err != nil {
		return t, err
	}
	// The baseline routes no reads and so counts none; it serves the reads of
	// any replicated cell (the pre-generated request stream does not depend
	// on the replica count).
	if baseline.simPS > 0 {
		baseline.readTputMops = float64(cells[0][0].reads) * 1e12 / float64(baseline.simPS) / 1e6
	}
	for si, spec := range slas {
		tput := []string{spec, "read tput", fmtF(baseline.readTputMops, 3)}
		stale := []string{spec, "stale mean", fmtF(0, 2)}
		unmet := []string{spec, "unmet frac", fmtF(0, 3)}
		t.AddMetric(fmt.Sprintf("replica_read_tput_mops/%s/0", spec), baseline.readTputMops)
		for ni, n := range replicaCounts {
			c := cells[si][ni]
			tput = append(tput, fmtF(c.readTputMops, 3))
			stale = append(stale, fmtF(c.staleMean, 2))
			unmet = append(unmet, fmtF(c.unmetFrac, 3))
			t.AddMetric(fmt.Sprintf("replica_read_tput_mops/%s/%d", spec, n), c.readTputMops)
			t.AddMetric(fmt.Sprintf("replica_stale_mean_epochs/%s/%d", spec, n), c.staleMean)
			t.AddMetric(fmt.Sprintf("replica_unmet_frac/%s/%d", spec, n), c.unmetFrac)
			t.AddMetric(fmt.Sprintf("replica_sec_read_frac/%s/%d", spec, n), c.secFrac)
		}
		t.Rows = append(t.Rows, tput, stale, unmet)
	}
	return t, nil
}
