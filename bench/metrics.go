package main

import "slices"

// metric declares one reported number. BENCHMARK.json lists the same names,
// units, directions and bounds; bench_test.go keeps the two in step.
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the base median by which an end-to-end metric
	// may worsen before it counts as a regression.
	Bound float64
	// ungated marks an end-to-end metric that the driver is told about
	// under per_layer, where metrics carry no bound and no spread test,
	// because the sandbox cannot hold it inside the widest bound the
	// driver allows. Reports and -compare treat it like any other.
	ungated bool
	// on names the workloads the metric is measured on; nil means all (per
	// layer: a number of the ladder, which has no workload). On any other
	// workload the metric does not exist: a report prints "n/a",
	// and the one-line result the driver reads, which must carry every
	// name on every workload, holds notApplicable (end to end) or 0 (per
	// layer).
	on []string
}

// notApplicable fills an end-to-end metric on a workload it is not declared
// for. It is not 0 because the driver divides by the base median.
const notApplicable = 1.0

func (m metric) appliesTo(workload string) bool {
	return m.on == nil || slices.Contains(m.on, workload)
}

var (
	everyWorkload    = []string{"a_closed_stw", "a_open_inc", "crud_incll", "split_merge", "replica_b", "crash_sweep", "paper_fig7"}
	serviceWorkloads = []string{"a_closed_stw", "a_open_inc", "crud_incll", "split_merge", "replica_b"}
	notCrashSweep    = []string{"a_closed_stw", "a_open_inc", "crud_incll", "split_merge", "replica_b", "paper_fig7"}
	steadyRSS        = []string{"a_closed_stw", "a_open_inc", "crud_incll", "replica_b", "paper_fig7"}
	openWorkloads    = []string{"a_open_inc", "split_merge"}
	onFig7           = []string{"paper_fig7"}
	onOpenInc        = []string{"a_open_inc"}
	onClosedSTW      = []string{"a_closed_stw"}
	onReplica        = []string{"replica_b"}
	onSplit          = []string{"split_merge"}
	onCrash          = []string{"crash_sweep"}
)

// Units name the clock: s, MiB and ns are the host's; sim_* are the
// simulated device's and repeat exactly at a given seed.
const (
	simUS   = "sim_us"
	simMS   = "sim_ms"
	simMops = "sim_Mops/s"
)

// endToEnd are the metrics a user of the three CLIs sees.
//
// Host bounds are noise margins, and a quarter is the widest the driver
// allows. Wall and CPU time do not fit inside it: the sandbox's two vCPUs
// deliver between one and two cores and its memory latency swells by half,
// for minutes at a time, with what the host's other tenants do, so ten
// driver runs of one workload spread (quartile distance over median) by 10
// to 30 % and medians taken half an hour apart differ by up to 20 %. A gate
// that noisy would reject good changes at random, so the two are ungated:
// measured, reported and compared by this program, judged by people over
// alternating pairs. Peak RSS and set-up time (which the driver requires,
// and exempts from its spread test) stay gated.
//
// Simulated bounds cover the spread between seeds, because the driver
// judges spread over runs that each take another seed; at one seed any
// change at all is a model change. The open latencies are histogram bucket
// edges 3 to 6 % apart, and the ladder's rates are an eighth apart: their
// bounds let one bucket wobble and catch a lost rate.
var endToEnd = []metric{
	{Name: "host_wall_s", Unit: "s", Better: "lower", Bound: 0.25, ungated: true},
	{Name: "host_cpu_s", Unit: "s", Better: "lower", Bound: 0.25, ungated: true},
	// Peak RSS has modes set by when the collector runs. crash_sweep peaks
	// anywhere from 12 to 33 MiB and split_merge at 660 or at 880 MiB from
	// one run to the next; a quarter is the driver's widest bound, so those
	// two have no RSS metric.
	{Name: "host_peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25, on: steadyRSS},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "sim_mops", Unit: simMops, Better: "higher", Bound: 0.01, on: notCrashSweep},
	{Name: "sim_cut_pause_p95_us", Unit: simUS, Better: "lower", Bound: 0.15, on: serviceWorkloads},
	{Name: "sim_cut_pause_max_us", Unit: simUS, Better: "lower", Bound: 0.15, on: serviceWorkloads},
	{Name: "sim_open_p50_us", Unit: simUS, Better: "lower", Bound: 0.10, on: openWorkloads},
	{Name: "sim_open_p99_us", Unit: simUS, Better: "lower", Bound: 0.10, on: openWorkloads},
	{Name: "sim_open_p999_us", Unit: simUS, Better: "lower", Bound: 0.10, on: openWorkloads},
	{Name: "sim_max_rate_mops", Unit: simMops, Better: "higher", Bound: 0.10, on: onOpenInc},
	{Name: "sim_ckpt_overhead_frac", Unit: "fraction", Better: "lower", Bound: 0.01, on: onFig7},
	{Name: "sim_ckpt_bytes_per_op", Unit: "B/op", Better: "lower", Bound: 0.01, on: onFig7},
}

// declared splits the metrics the way BENCHMARK.json lists them: the gated
// end-to-end metrics, and everything without a bound.
func declared() (gated, unbounded []metric) {
	for _, m := range endToEnd {
		if m.ungated {
			unbounded = append(unbounded, m)
		} else {
			gated = append(gated, m)
		}
	}
	return gated, append(unbounded, perLayer...)
}

// ladderBackends are the checkpoint backends the layer ladder runs under
// the hashmap: libcrpm default mode, libcrpm buffered mode, and InCLL.
var ladderBackends = []string{"core", "corebuf", "incll"}

// perLayer are the metrics of single layers, in the order README.md
// explains them. Names lead with the package they measure.
var perLayer = buildPerLayer()

func buildPerLayer() []metric {
	lo := func(name, unit string, on ...string) metric {
		return metric{Name: name, Unit: unit, Better: "lower", on: on}
	}
	hi := func(name, unit string, on ...string) metric {
		return metric{Name: name, Unit: unit, Better: "higher", on: on}
	}
	ms := []metric{
		// Rung 0: request generation.
		lo("workload.zipf_init_ms", "ms"),
		lo("workload.next_zipf_ns", "ns"),
		lo("workload.next_uniform_ns", "ns"),
		// The serving loop, from the traced child's status lines and files.
		lo("server.serve_ns_per_op", "ns", serviceWorkloads...),
		lo("server.tail_s", "s", serviceWorkloads...),
		lo("server.loop_residual_ns", "ns", onClosedSTW...),
		lo("server.cuts", "count", serviceWorkloads...),
		lo("server.sim_populate_ms", simMS, serviceWorkloads...),
		lo("server.sim_pause_ms", simMS, serviceWorkloads...),
		lo("server.migrated_keys", "count", onSplit...),
		lo("server.catchup_ops", "count", onSplit...),
		// Rung 1 minus rung 2: the structures over the allocator and heap.
		lo("pds.hashmap_self_ns", "ns"),
		lo("pds.rbmap_self_ns", "ns"),
		lo("core.populate_ns_per_key", "ns"),
		lo("incll.populate_ns_per_key", "ns"),
	}
	// Rung 2: the backends under the recorded hook sequence.
	for _, b := range ladderBackends {
		ms = append(ms,
			lo(b+".hook_ns", "ns"),
			lo(b+".ckpt_host_us", "us"),
			hi(b+".sim_exec_frac", "fraction"),
			lo(b+".sim_trace_frac", "fraction"),
			lo(b+".sim_ckpt_frac", "fraction"),
			lo(b+".stores_per_op", "1/op"),
			lo(b+".clwbs_per_op", "1/op"),
			lo(b+".sfences_per_kop", "1/kop"),
			lo(b+".media_bytes_per_user_byte", "B/B"),
			lo(b+".ckpt_bytes_per_op", "B/op"),
		)
	}
	ms = append(ms,
		lo("core.recover_host_ms", "ms"),
		lo("incll.recover_host_ms", "ms"),
		lo("core.sim_recover_us", simUS),
		lo("incll.sim_recover_us", simUS),
		// Checkpoint phases of the service workloads, from their -trace files.
		lo("core.sim_ckpt_ms", simMS, serviceWorkloads...),
		lo("core.sim_dirty_scan_ms", simMS, serviceWorkloads...),
		lo("core.sim_flush_ms", simMS, serviceWorkloads...),
		lo("core.sim_fence_ms", simMS, serviceWorkloads...),
		lo("core.sim_commit_ms", simMS, serviceWorkloads...),
		lo("core.sim_cow_ms", simMS, serviceWorkloads...),
		lo("core.cow_count", "count", serviceWorkloads...),
		lo("core.sim_ckpt_begin_ms", simMS, onOpenInc...),
		lo("core.sim_ckpt_step_ms", simMS, onOpenInc...),
		lo("core.sim_ckpt_replay_ms", simMS, onOpenInc...),
		lo("core.sim_ckpt_commit_ms", simMS, onOpenInc...),
		// Rung 3: device, collectives, measurement and tracing primitives.
		lo("nvm.new_device_us_per_mib", "us/MiB"),
		lo("nvm.store8_ns", "ns"),
		lo("nvm.flush_fence_ns", "ns"),
		lo("nvm.sfence_span_ns", "ns"),
		lo("nvm.ntstore4k_ns", "ns"),
		lo("nvm.crash_us_per_mib", "us/MiB"),
		lo("mpi.allreduce_ns", "ns"),
		lo("mpi.barrier_ns", "ns"),
		lo("measure.observe_ns", "ns"),
		hi("measure.achieved_frac", "fraction", openWorkloads...),
		lo("measure.svc_p99_us", simUS, openWorkloads...),
		lo("measure.worst_interval_open_p99_us", simUS, openWorkloads...),
		lo("obs.observe_ns", "ns"),
		lo("obs.span_ns", "ns"),
		lo("obs.trace_overhead_frac", "fraction", everyWorkload...),
		// Replication, from replica_b's -json and -trace files.
		hi("replica.sec_read_frac", "fraction", onReplica...),
		lo("replica.unmet_read_frac", "fraction", onReplica...),
		lo("replica.stale_mean_epochs", "epochs", onReplica...),
		lo("replica.sim_install_ms", simMS, onReplica...),
		// The two sweeps.
		hi("harness.cells_per_s", "1/s", onFig7...),
		lo("harness.first_cell_s", "s", onFig7...),
		hi("torture.replays", "count", onCrash...),
		hi("torture.replays_per_s", "1/s", onCrash...),
		hi("torture.incll_replays", "count", onCrash...),
		lo("torture.incll_violations", "count", onCrash...),
	)
	return ms
}
