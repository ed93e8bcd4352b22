package main

import (
	"fmt"
	"time"

	"libcrpm/internal/alloc"
	"libcrpm/internal/ckpt"
	"libcrpm/internal/core"
	"libcrpm/internal/heap"
	"libcrpm/internal/incll"
	"libcrpm/internal/measure"
	"libcrpm/internal/mpi"
	"libcrpm/internal/nvm"
	"libcrpm/internal/obs"
	"libcrpm/internal/pds"
	"libcrpm/internal/region"
	"libcrpm/internal/sched"
	ycsb "libcrpm/internal/workload"
)

// The layer ladder gives each layer a host cost without wrapping its 30 to
// 200 ns calls in timers. Every rung runs the same seed-derived YCSB-A
// stream in this process on one goroutine and times the whole loop; a
// layer's self time is its rung minus the rung below.
//
//	rung 0  workload: build a generator, draw requests
//	rung 1  pds over alloc over heap over a backend, recording every hook call
//	rung 2  the recorded hook calls alone, into a fresh backend
//	rung 3  single primitives of nvm, mpi, measure and obs
type ladderSize struct {
	keys, buckets, heap int
	// requests is the stream length under the hashmap on the two libcrpm
	// modes. On InCLL and under the red-black map a call costs many times
	// more host time, so those two stacks have sizes of their own.
	requests, slowRequests int
	slowKeys               int
	ckptEvery              int
	// Each rung-0 and rung-3 figure is the median of passes loops of at
	// least minLoop.
	passes  int
	minLoop time.Duration
}

var fullLadder = ladderSize{
	keys: 200000, buckets: 131072, heap: 32 << 20,
	requests: 500000, slowRequests: 200000, slowKeys: 200000, ckptEvery: 8192,
	passes: 5, minLoop: 200 * time.Millisecond,
}

// tinyLadder is the smoke test's.
var tinyLadder = ladderSize{
	keys: 2000, buckets: 2048, heap: 4 << 20,
	requests: 6000, slowRequests: 3000, slowKeys: 2000, ckptEvery: 1024,
	passes: 3, minLoop: 2 * time.Millisecond,
}

// scaled shrinks the measured loops, and the state the two slow stacks
// populate, so a run the driver gives a few seconds still reports every
// number. Per-call figures stay comparable between runs of one effort.
func (s ladderSize) scaled(effort float64) ladderSize {
	if effort >= 1 {
		return s
	}
	s.slowKeys = max(int(float64(s.slowKeys)*effort), 1000)
	s.requests = max(int(float64(s.requests)*effort), s.ckptEvery*2)
	s.slowRequests = max(int(float64(s.slowRequests)*effort), s.ckptEvery*2)
	s.minLoop = time.Duration(float64(s.minLoop) * effort)
	return s
}

// deviceBytes sizes the rung-3 device: big enough that a fence's cost
// shows how far apart its pending lines are.
const deviceBytes = 64 << 20

type ladder struct {
	size     ladderSize
	seed     int64
	log      *spanLog
	parent   int
	out      map[string]float64
	problems []string
}

func runLadder(size ladderSize, seed int64, log *spanLog, parent int) (map[string]float64, []string) {
	l := &ladder{size: size, seed: seed, log: log, parent: parent, out: map[string]float64{}}
	l.rung0()
	l.stacks()
	l.rung3()
	return l.out, l.problems
}

func (l *ladder) fail(format string, args ...any) {
	l.problems = append(l.problems, "ladder: "+fmt.Sprintf(format, args...))
}

// perCall reports what one call costs in ns: fn(n) makes n calls, n grows
// until a loop lasts minLoop, and the result is the median over passes.
func (l *ladder) perCall(name string, fn func(n int)) float64 {
	id := l.log.begin(l.parent, name)
	defer l.log.end(id)
	n := 1
	var samples []float64
	for len(samples) < l.size.passes {
		start := time.Now()
		fn(n)
		d := time.Since(start)
		if d >= l.size.minLoop {
			samples = append(samples, float64(d.Nanoseconds())/float64(n))
			continue
		}
		samples = samples[:0]
		if d < l.size.minLoop/16 {
			n *= 8
		} else {
			n = int(float64(n)*1.25*float64(l.size.minLoop)/float64(d)) + 1
		}
	}
	return median(samples)
}

func clientSeed(seed int64, client int) int64 {
	// The label crpmserve derives its client streams from.
	return sched.SeedFor(fmt.Sprintf("serve/%d/client/%d", seed, client))
}

const ladderClients = 4

func (l *ladder) rung0() {
	keys := uint64(l.size.keys)
	l.out["workload.zipf_init_ms"] = l.perCall("workload.NewGenerator", func(n int) {
		for i := 0; i < n; i++ {
			sinkGen = ycsb.NewGenerator(ycsb.YCSBA, keys, 0, ladderClients, clientSeed(l.seed, 0))
		}
	}) / 1e6
	next := func(mix ycsb.YCSBMix) func(int) {
		g := ycsb.NewGenerator(mix, keys, 0, ladderClients, clientSeed(l.seed, 0))
		return func(n int) {
			for i := 0; i < n; i++ {
				sinkOp = g.Next()
			}
		}
	}
	l.out["workload.next_zipf_ns"] = l.perCall("workload.Next/zipfian", next(ycsb.YCSBA))
	uniform := ycsb.YCSBA
	uniform.Dist = ycsb.DistUniform
	l.out["workload.next_uniform_ns"] = l.perCall("workload.Next/uniform", next(uniform))
}

var (
	sinkGen *ycsb.Generator
	sinkOp  ycsb.Op
)

// stream draws n requests the way crpmserve does: four client generators
// taken round-robin.
func (l *ladder) stream(keys, n int) []ycsb.Op {
	gens := make([]*ycsb.Generator, ladderClients)
	for i := range gens {
		gens[i] = ycsb.NewGenerator(ycsb.YCSBA, uint64(keys), i, ladderClients, clientSeed(l.seed, i))
	}
	ops := make([]ycsb.Op, n)
	for i := range ops {
		ops[i] = gens[i%ladderClients].Next()
	}
	return ops
}

// hook is one recorded call on a ckpt.Backend.
type hook struct {
	kind   uint8
	off, n int32
}

const (
	hookRead uint8 = iota
	hookWrite
	hookStore
	hookCheckpoint
)

// recording forwards to a backend and logs every call pds, alloc and heap
// make on it. It embeds the interface, so methods a later change adds to
// ckpt.Backend forward untouched.
type recording struct {
	ckpt.Backend
	calls []hook
	data  []byte
	// ckptNS sums the host time inside Checkpoint, which rung 1 subtracts
	// to leave the time of the requests alone.
	ckptNS int64
}

func (r *recording) OnRead(off, n int) {
	r.calls = append(r.calls, hook{hookRead, int32(off), int32(n)})
	r.Backend.OnRead(off, n)
}

func (r *recording) OnWrite(off, n int) {
	r.calls = append(r.calls, hook{hookWrite, int32(off), int32(n)})
	r.Backend.OnWrite(off, n)
}

func (r *recording) Write(off int, src []byte) {
	r.calls = append(r.calls, hook{hookStore, int32(off), int32(len(src))})
	r.data = append(r.data, src...)
	r.Backend.Write(off, src)
}

func (r *recording) Checkpoint() error {
	r.calls = append(r.calls, hook{kind: hookCheckpoint})
	start := time.Now()
	err := r.Backend.Checkpoint()
	r.ckptNS += time.Since(start).Nanoseconds()
	return err
}

// stack is one configuration of rungs 1 and 2.
type stack struct {
	prefix string // metric prefix
	rbmap  bool
	slow   bool // takes the slow stacks' sizes
	open   func() (ckpt.Backend, error)
	// reopen recovers a backend from a crashed device; nil where recovery
	// is not reported.
	reopen func(dev *nvm.Device) (ckpt.Backend, error)
}

func (l *ladder) coreStack(prefix string, mode core.Mode, rbmap bool) stack {
	reg := region.Config{HeapSize: l.size.heap, BackupRatio: 1}
	opts := mpi.ContainerOptions(reg, mode) // the options crpmserve gives its shards
	s := stack{prefix: prefix, rbmap: rbmap, slow: rbmap}
	s.open = func() (ckpt.Backend, error) {
		lay, err := region.NewLayout(reg)
		if err != nil {
			return nil, err
		}
		return core.NewContainer(nvm.NewDevice(lay.DeviceSize()), opts)
	}
	if mode == core.ModeDefault && !rbmap {
		s.reopen = func(dev *nvm.Device) (ckpt.Backend, error) { return core.OpenContainer(dev, opts) }
	}
	return s
}

func (l *ladder) stacks() {
	all := []stack{
		l.coreStack("core", core.ModeDefault, false),
		l.coreStack("corebuf", core.ModeBuffered, false),
		{
			prefix: "incll", slow: true,
			open:   func() (ckpt.Backend, error) { return incll.New(l.size.heap) },
			reopen: func(dev *nvm.Device) (ckpt.Backend, error) { return incll.Open(l.size.heap, dev) },
		},
		l.coreStack("rbmap", core.ModeDefault, true),
	}
	fast := l.stream(l.size.keys, l.size.requests)
	slow := l.stream(l.size.slowKeys, l.size.slowRequests)
	for _, s := range all {
		id := l.log.begin(l.parent, "stack/"+s.prefix)
		keys, ops := l.size.keys, fast
		if s.slow {
			keys, ops = l.size.slowKeys, slow
		}
		if err := l.runStack(s, keys, ops, id); err != nil {
			l.fail("%s: %v", s.prefix, err)
		}
		l.log.end(id)
	}
}

// mark is the device's state at one instant of a rung.
type mark struct {
	stats   nvm.Stats
	metrics ckpt.Metrics
	ps      int64
	cat     [nvm.NumCategories]int64
}

func markOf(b ckpt.Backend) mark {
	c := b.Device().Clock()
	m := mark{stats: b.Device().Stats(), metrics: b.Metrics(), ps: c.NowPS()}
	for i := range m.cat {
		m.cat[i] = c.CategoryPS(nvm.Category(i))
	}
	return m
}

func apply(kv pds.KV, op ycsb.Op) error {
	switch op.Kind {
	case ycsb.OpRead:
		kv.Get(op.Key)
	case ycsb.OpUpdate, ycsb.OpInsert:
		return kv.Put(op.Key, op.Value)
	case ycsb.OpScan:
		kv.Scan(op.Key, op.ScanLen)
	case ycsb.OpRMW:
		old, _ := kv.Get(op.Key)
		return kv.Put(op.Key, old+op.Value)
	case ycsb.OpDelete:
		kv.Delete(op.Key)
	}
	return nil
}

func (l *ladder) runStack(s stack, keys int, ops []ycsb.Op, parent int) error {
	// Rung 1: populate, cut, then the stream with a cut every ckptEvery.
	b, err := s.open()
	if err != nil {
		return err
	}
	rec := &recording{Backend: b,
		// Room for the hashmap stacks, which make 5 to 8 calls per request;
		// the red-black map makes more and grows these, which is noise
		// against its microseconds per request.
		calls: make([]hook, 0, 16*(keys+len(ops))),
		data:  make([]byte, 0, 32*(keys+len(ops)))}
	a, err := alloc.Format(heap.New(rec))
	if err != nil {
		return err
	}
	var kv pds.KV
	if s.rbmap {
		kv, err = pds.NewRBMap(a)
	} else {
		kv, err = pds.NewHashMap(a, l.size.buckets)
	}
	if err != nil {
		return err
	}
	id := l.log.begin(parent, "rung1/populate")
	start := time.Now()
	for k := uint64(0); k < uint64(keys); k++ {
		if err := kv.Put(k, k); err != nil {
			return err
		}
	}
	populateNS := time.Since(start).Nanoseconds()
	l.log.end(id)
	if err := rec.Checkpoint(); err != nil {
		return err
	}
	served := len(rec.calls) // the calls before this index set the stage
	base := markOf(b)
	rec.ckptNS = 0
	id = l.log.begin(parent, "rung1/serve")
	start = time.Now()
	var userBytes int64
	for i, op := range ops {
		if err := apply(kv, op); err != nil {
			return err
		}
		if op.Kind != ycsb.OpRead {
			userBytes += 16 // a key and a value
		}
		if (i+1)%l.size.ckptEvery == 0 {
			if err := rec.Checkpoint(); err != nil {
				return err
			}
		}
	}
	fullNS := time.Since(start).Nanoseconds() - rec.ckptNS
	l.log.end(id)
	end := markOf(b)

	// Rung 2: the same calls with nothing above the backend.
	b2, err := s.open()
	if err != nil {
		return err
	}
	id = l.log.begin(parent, "rung2/replay")
	hookNS, ckpts, err := replay(b2, rec.calls, rec.data, served)
	l.log.end(id)
	if err != nil {
		return err
	}
	if got := markOf(b2); got.stats != end.stats || got.ps != end.ps {
		l.fail("%s: replay diverged from the recorded run: %v at %d ps, recorded %v at %d ps",
			s.prefix, got.stats, got.ps, end.stats, end.ps)
	}

	n := float64(len(ops))
	self := (float64(fullNS) - float64(hookNS)) / n
	if s.rbmap {
		l.out["pds.rbmap_self_ns"] = self
		return nil
	}
	p := s.prefix + "."
	if s.prefix == "core" {
		l.out["pds.hashmap_self_ns"] = self
	}
	if s.prefix != "corebuf" {
		l.out[p+"populate_ns_per_key"] = float64(populateNS) / float64(keys)
	}
	l.out[p+"hook_ns"] = float64(hookNS) / n
	l.out[p+"ckpt_host_us"] = median(ckpts) / 1e3
	st := end.stats.Sub(base.stats)
	total := float64(end.ps - base.ps)
	l.out[p+"sim_exec_frac"] = float64(end.cat[nvm.CatExecution]-base.cat[nvm.CatExecution]) / total
	l.out[p+"sim_trace_frac"] = float64(end.cat[nvm.CatTrace]-base.cat[nvm.CatTrace]) / total
	l.out[p+"sim_ckpt_frac"] = float64(end.cat[nvm.CatCheckpoint]-base.cat[nvm.CatCheckpoint]) / total
	l.out[p+"stores_per_op"] = float64(st.Stores) / n
	l.out[p+"clwbs_per_op"] = float64(st.CLWBs) / n
	l.out[p+"sfences_per_kop"] = float64(st.SFences) * 1000 / n
	l.out[p+"media_bytes_per_user_byte"] = float64(st.MediaWriteBytes) / float64(userBytes)
	l.out[p+"ckpt_bytes_per_op"] = float64(end.metrics.Sub(base.metrics).CheckpointBytes) / n

	if s.reopen == nil {
		return nil
	}
	// Power fails with the work since the last cut unflushed; recovery
	// rolls back to that cut.
	dev := b2.Device()
	dev.CrashWith(nvm.DropAll)
	before := dev.Clock().NowPS()
	id = l.log.begin(parent, "recover")
	start = time.Now()
	_, err = s.reopen(dev)
	l.out[p+"recover_host_ms"] = float64(time.Since(start).Nanoseconds()) / 1e6
	l.log.end(id)
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	l.out[p+"sim_recover_us"] = float64(dev.Clock().NowPS()-before) / 1e6
	return nil
}

// replay makes the recorded calls on a fresh backend. It returns the host
// ns of the calls from index served on, Checkpoint excluded, and the ns of
// each of those Checkpoint calls.
func replay(b ckpt.Backend, calls []hook, data []byte, served int) (hookNS int64, ckpts []float64, err error) {
	var ckptNS int64
	p := 0
	start := time.Now()
	for i, c := range calls {
		if i == served {
			start, ckptNS = time.Now(), 0
		}
		switch c.kind {
		case hookRead:
			b.OnRead(int(c.off), int(c.n))
		case hookWrite:
			b.OnWrite(int(c.off), int(c.n))
		case hookStore:
			b.Write(int(c.off), data[p:p+int(c.n)])
			p += int(c.n)
		case hookCheckpoint:
			t := time.Now()
			if err := b.Checkpoint(); err != nil {
				return 0, nil, err
			}
			d := time.Since(t).Nanoseconds()
			ckptNS += d
			if i >= served {
				ckpts = append(ckpts, float64(d))
			}
		}
	}
	return time.Since(start).Nanoseconds() - ckptNS, ckpts, nil
}

func (l *ladder) rung3() {
	mib := float64(deviceBytes) / (1 << 20)
	l.out["nvm.new_device_us_per_mib"] = l.perCall("nvm.NewDevice", func(n int) {
		for i := 0; i < n; i++ {
			sinkDev = nvm.NewDevice(deviceBytes)
		}
	}) / 1e3 / mib

	dev := nvm.NewDevice(deviceBytes)
	word := make([]byte, 8)
	const window = 1 << 20 // stores cycle over 1 MiB, a line apart
	l.out["nvm.store8_ns"] = l.perCall("nvm.Store", func(n int) {
		for i := 0; i < n; i++ {
			dev.Store(i*nvm.LineSize%window, word)
		}
	})
	l.out["nvm.flush_fence_ns"] = l.perCall("nvm.Store+CLWB+SFence", func(n int) {
		for i := 0; i < n; i++ {
			off := i * nvm.LineSize % window
			dev.Store(off, word)
			dev.CLWB(off)
			dev.SFence()
		}
	})
	// Two pending lines at opposite ends of the device: what InCLL's data
	// line and far-away side log look like to a fence.
	far := deviceBytes - nvm.LineSize
	l.out["nvm.sfence_span_ns"] = l.perCall("nvm.SFence/span", func(n int) {
		for i := 0; i < n; i++ {
			dev.Store(0, word)
			dev.Store(far, word)
			dev.CLWB(0)
			dev.CLWB(far)
			dev.SFence()
		}
	})
	page := make([]byte, 4096)
	l.out["nvm.ntstore4k_ns"] = l.perCall("nvm.NTStore/4k", func(n int) {
		for i := 0; i < n; i++ {
			dev.NTStore(i*len(page)%window, page)
			if i%256 == 255 {
				dev.SFence() // keep the pending set from growing without bound
			}
		}
		dev.SFence()
	})
	l.out["nvm.crash_us_per_mib"] = l.perCall("nvm.CrashWith", func(n int) {
		for i := 0; i < n; i++ {
			dev.Store(0, word)
			dev.CrashWith(nvm.DropAll)
		}
	}) / 1e3 / mib

	// Two ranks, as in every service workload; rank 0's loop is timed.
	collective := func(call func(c *mpi.Comm)) func(int) {
		return func(n int) {
			mpi.NewWorld(2).Run(func(c *mpi.Comm) {
				for i := 0; i < n; i++ {
					call(c)
				}
			})
		}
	}
	l.out["mpi.allreduce_ns"] = l.perCall("mpi.AllreduceU64", collective(func(c *mpi.Comm) { c.AllreduceU64(1, mpi.Sum) }))
	l.out["mpi.barrier_ns"] = l.perCall("mpi.Barrier", collective(func(c *mpi.Comm) { c.Barrier() }))

	mcfg, err := measure.Config{TargetOps: 1e6}.WithDefaults()
	if err != nil {
		l.fail("measure: %v", err)
		return
	}
	col := measure.NewCollector(mcfg, measure.NewSchedule(0, mcfg))
	l.out["measure.observe_ns"] = l.perCall("measure.Observe", func(n int) {
		for i := 0; i < n; i++ {
			// Intended starts stay inside one second of simulated time, so
			// the timeseries does not grow with n.
			at := int64(i%1000000) * 1_000_000
			col.Observe(ycsb.OpKind(i&1), i, at, at, at+int64(300_000+i%4096*1000))
		}
	})
	clock := nvm.NewClock()
	rec := obs.NewRecorder(clock)
	l.out["obs.observe_ns"] = l.perCall("obs.Observe", func(n int) {
		for i := 0; i < n; i++ {
			rec.Observe("req-latency", measure.LatencyBounds, int64(300_000+i%4096*1000))
		}
	})
	l.out["obs.span_ns"] = l.perCall("obs.Begin+End", func(n int) {
		for i := 0; i < n; i++ {
			if i%65536 == 0 {
				rec = obs.NewRecorder(clock) // a recorder keeps every span; start over before they pile up
			}
			rec.Begin("span")
			rec.End()
		}
	})
}

var sinkDev *nvm.Device
