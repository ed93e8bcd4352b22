// Package torture is the adversarial crash-consistency sweep: it counts the
// device primitives of a deterministic scripted workload, then replays the
// workload once per crash point, injecting a crash after the k-th primitive
// and resolving the unguaranteed lines with an adversarial CrashPolicy
// instead of one seeded coin flip. After every crash the container is
// reopened, recovered, fsck'd with region.Check, and its heap compared
// byte-for-byte against the shadow copy of the epoch it claims to have
// recovered — so the paper's §3.4.3 claim ("recovery rebuilds a committed
// state after a crash at ANY point") is tested at every point, under every
// schedule, in every container mode.
//
// The sweep is runnable both as a Go test (internal/torture's tests) and as
// a CLI (cmd/crpmtorture) for CI.
package torture

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"

	"libcrpm/internal/ckpt"
	"libcrpm/internal/core"
	"libcrpm/internal/nvm"
	"libcrpm/internal/obs"
	"libcrpm/internal/region"
	"libcrpm/internal/sched"
)

// System is what the sweep drives: the ckpt.Backend arena contract plus
// the committed-epoch surface the shadow diff keys on. core.Container and
// the incll backend both qualify.
type System interface {
	ckpt.Backend
	CommittedEpoch() uint64
}

// Step is one deterministic workload action: an 8-byte write, or a
// checkpoint.
type Step struct {
	Off        int
	Val        uint64
	Checkpoint bool
}

// BuildScript produces a deterministic mixed workload over the heap:
// scattered 8-byte writes with periodic checkpoints, ending in a
// checkpoint so the final state is committed.
func BuildScript(seed int64, heapSize, steps, ckptEvery int) []Step {
	rng := rand.New(rand.NewSource(seed))
	var script []Step
	for i := 0; i < steps; i++ {
		if i > 0 && i%ckptEvery == 0 {
			script = append(script, Step{Checkpoint: true})
		}
		script = append(script, Step{Off: rng.Intn(heapSize/8-1) * 8, Val: rng.Uint64()})
	}
	return append(script, Step{Checkpoint: true})
}

// Mode is a named checkpoint system the sweep runs under: either a core
// container configuration (Opts) or an arbitrary backend (Fresh/Reopen).
type Mode struct {
	Name string
	// Opts builds the core container options; the sweep then constructs,
	// reopens, and fscks core containers. nil when Fresh/Reopen are set.
	Opts func(region.Config) core.Options
	// Fresh formats a non-core system on a fresh device and Reopen
	// reattaches (and recovers) after a crash. Such modes skip the
	// region fsck stage — their packages own their format checks.
	Fresh  func(cfg Config) (*nvm.Device, System, error)
	Reopen func(cfg Config, dev *nvm.Device) (System, error)
}

func (m Mode) fresh(cfg Config) (*nvm.Device, System, error) {
	if m.Fresh != nil {
		return m.Fresh(cfg)
	}
	l, err := region.NewLayout(cfg.Region)
	if err != nil {
		return nil, nil, err
	}
	dev := nvm.NewDevice(l.DeviceSize())
	c, err := core.NewContainer(dev, m.Opts(cfg.Region))
	return dev, c, err
}

func (m Mode) reopen(cfg Config, dev *nvm.Device) (System, error) {
	if m.Reopen != nil {
		return m.Reopen(cfg, dev)
	}
	return core.OpenContainer(dev, m.Opts(cfg.Region))
}

// StandardModes covers the three protocol variants of the paper: the
// default NVM-resident mode with lazy copy-on-write, the buffered DRAM
// mode, and the default mode with eager CoW forced on for every epoch.
// (The default EagerCoWSegments threshold of 64 would make small test
// geometries always-eager, so the lazy variant disables it explicitly.)
func StandardModes() []Mode {
	return []Mode{
		{Name: "default", Opts: func(r region.Config) core.Options {
			return core.Options{Region: r, Mode: core.ModeDefault, EagerCoWSegments: -1}
		}},
		{Name: "buffered", Opts: func(r region.Config) core.Options {
			return core.Options{Region: r, Mode: core.ModeBuffered}
		}},
		{Name: "eager-cow", Opts: func(r region.Config) core.Options {
			return core.Options{Region: r, Mode: core.ModeDefault, EagerCoWSegments: 1 << 30}
		}},
	}
}

// Policy is a named crash-outcome chooser; New builds the (possibly
// stateful) nvm.CrashPolicy for the replay crashing at primitive index k,
// so randomized policies are reproducible per crash point.
type Policy struct {
	Name string
	New  func(k int64) nvm.CrashPolicy
}

// StandardPolicies are the three schedules of the acceptance sweep:
// seeded-random line fates, everything persists, everything is lost.
func StandardPolicies(seed int64) []Policy {
	return []Policy{
		{"seeded", func(k int64) nvm.CrashPolicy {
			return nvm.SeededCrash(rand.New(rand.NewSource(seed ^ k)))
		}},
		{"persist-all", func(int64) nvm.CrashPolicy { return nvm.PersistAll }},
		{"drop-all", func(int64) nvm.CrashPolicy { return nvm.DropAll }},
	}
}

// AdversarialPolicy alternates line fates, flipping phase with the crash
// point, so neighbouring lines of one protocol structure get opposite
// outcomes.
func AdversarialPolicy() Policy {
	return Policy{"alternating", func(k int64) nvm.CrashPolicy {
		return nvm.Alternating(int(k & 1))
	}}
}

// Fault is a named media-fault injection applied to the crashed device
// image before reopen, adding a third sweep axis (crash point x policy x
// fault). Injections must damage only state the mode's recovery protocol
// is specified to tolerate; the shadow diff then proves recovery still
// lands byte-exactly on the committed epoch. A panic inside Inject
// becomes a violation row via the sweep's panic containment.
type Fault struct {
	Name string
	// Inject damages the post-crash media image; k is the crash point,
	// for deterministic per-point variation.
	Inject func(cfg Config, dev *nvm.Device, k int64)
}

// Config parameterizes a sweep.
type Config struct {
	// Region is the container geometry. Zero value gets a small
	// multi-segment default (16 segments of 4 KB, 256 B blocks).
	Region region.Config
	// Steps and CkptEvery shape the script (defaults 240 and 60).
	Steps, CkptEvery int
	// Seed drives the script and the seeded policy.
	Seed int64
	// Stride tests every Stride-th crash point (1 = full sweep).
	Stride int
	// Checksums runs the containers with the metadata checksum extension,
	// exercising the seal/unseal protocol at every crash point.
	Checksums bool
	// Modes and Policies select the sweep matrix; nil means the standard
	// three of each.
	Modes    []Mode
	Policies []Policy
	// Faults adds a media-fault axis: every (policy, crash point) cell is
	// additionally replayed once per fault, with the fault injected into
	// the crash image before reopen. nil keeps the fault-free grid (and
	// the report format) of earlier sweeps.
	Faults []Fault
	// Liveness additionally verifies after each recovery that the
	// container still works: one more write, checkpoint, clean restart,
	// reread.
	Liveness bool
	// Trace records phase spans (on the simulated clock) for each mode's
	// reference run into Result.Trace, one track per mode. Replays are not
	// traced: a crash-point sweep runs thousands of them, and the reference
	// run already shows where each mode's protocol time goes.
	Trace bool
	// Parallel bounds the number of crash-point replays in flight
	// (0 = GOMAXPROCS, 1 = serial). Every replay owns a fresh device and
	// reads only the shared script and shadow snapshots, and violations are
	// reduced in crash-point order, so the report is byte-identical at any
	// setting.
	Parallel int
	// Progress, if non-nil, is called after each (mode, policy) combo.
	Progress func(mode, policy string, points int, violations int)
}

func (c Config) withDefaults() Config {
	if c.Region.HeapSize == 0 {
		c.Region = region.Config{HeapSize: 16 * 4096, SegmentSize: 4096, BlockSize: 256, BackupRatio: 1.0}
	}
	c.Region.Checksums = c.Checksums
	if c.Steps == 0 {
		c.Steps = 240
	}
	if c.CkptEvery == 0 {
		c.CkptEvery = 60
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Stride <= 0 {
		c.Stride = 1
	}
	if c.Modes == nil {
		c.Modes = StandardModes()
	}
	if c.Policies == nil {
		c.Policies = StandardPolicies(c.Seed)
	}
	return c
}

// Violation is one consistency failure found by the sweep.
type Violation struct {
	Mode   string
	Policy string
	// Fault names the injected media fault; empty on the fault-free grid.
	Fault string
	// Index and Kind identify the injected crash (replayable with
	// Device.FailAfter(Index-1)).
	Index int64
	Kind  nvm.OpKind
	// Stage names the phase that failed: reopen, shadow-diff, fsck,
	// liveness.
	Stage  string
	Detail string
}

// String renders the violation with everything needed to replay it.
func (v Violation) String() string {
	combo := v.Mode + "/" + v.Policy
	if v.Fault != "" {
		combo += "/" + v.Fault
	}
	return fmt.Sprintf("[%s] crash at primitive %d (%s): %s: %s",
		combo, v.Index, v.Kind, v.Stage, v.Detail)
}

// Result summarizes a sweep.
type Result struct {
	// Points is the number of crash points tested per (mode, policy).
	Points map[string]int
	// Replays counts every crash-replay-recover cycle executed.
	Replays int
	// Violations lists every consistency failure (empty = sweep passed).
	Violations []Violation
	// Trace holds the reference runs' phase spans when Config.Trace is set
	// (one track per mode, in mode order); nil otherwise.
	Trace *obs.Trace
}

// OK reports whether the sweep found no violations.
func (r Result) OK() bool { return len(r.Violations) == 0 }

// Sweep runs the full matrix: for each mode, a reference run counts the
// script's primitives and records the shadow state of every committed
// epoch; then for each policy and each (strided) crash point the workload
// is replayed, crashed, recovered, and verified.
func Sweep(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	res := Result{Points: make(map[string]int)}
	script := BuildScript(cfg.Seed, cfg.Region.HeapSize, cfg.Steps, cfg.CkptEvery)

	for _, mode := range cfg.Modes {
		first, total, shadows, rec, err := reference(cfg, mode, script)
		if err != nil {
			return res, fmt.Errorf("torture: reference run (%s): %w", mode.Name, err)
		}
		if rec != nil {
			if res.Trace == nil {
				res.Trace = &obs.Trace{}
			}
			res.Trace.Add("torture/"+mode.Name+"/reference", rec)
		}
		faults := cfg.Faults
		if faults == nil {
			faults = []Fault{{}}
		}
		for _, pol := range cfg.Policies {
			for _, fault := range faults {
				polName := pol.Name
				if fault.Name != "" {
					polName += "/" + fault.Name
				}
				// Each replay owns its device and reads only the immutable
				// script and shadows.
				n, vs := sweepSpan(first, total, cfg.Stride, cfg.Parallel, func(k int64) []Violation {
					return replayCell(cfg, mode, pol, fault, script, shadows, k)
				})
				res.Replays += n
				res.Points[mode.Name+"/"+polName] = n
				res.Violations = append(res.Violations, vs...)
				if cfg.Progress != nil {
					cfg.Progress(mode.Name, polName, n, len(vs))
				}
			}
		}
	}
	return res, nil
}

// sweepSpan is the skeleton every crash sweep shares: one replay per stride-th
// crash point of [lo, hi), fanned out over the sched pool, the violations
// reduced in crash-point order — so a report is byte-identical to the serial
// sweep's at any parallelism, provided replays share only immutable state. It
// returns the number of points replayed and what they found.
func sweepSpan[V any](lo, hi int64, stride, parallel int, replay func(k int64) []V) (points int, found []V) {
	var ks []int64
	for k := lo; k < hi; k += int64(stride) {
		ks = append(ks, k)
	}
	cells := sched.Map(len(ks), sched.Options{Workers: parallel}, func(i int) []V { return replay(ks[i]) })
	for _, cell := range cells {
		found = append(found, cell...)
	}
	return len(ks), found
}

// replayCell is one scheduled replay with panic containment: a panic that
// escapes the protocol mid-replay (anything other than the injected crash
// runToCrash expects) becomes a violation row for that crash point instead
// of killing the sweep — at every parallelism level, so serial and parallel
// reports agree even on protocol bugs.
func replayCell(cfg Config, mode Mode, pol Policy, fault Fault, script []Step, shadows map[uint64][]byte, k int64) (vs []Violation) {
	defer func() {
		if r := recover(); r != nil {
			vs = []Violation{{Mode: mode.Name, Policy: pol.Name, Fault: fault.Name, Index: k, Stage: "panic", Detail: fmt.Sprint(r)}}
		}
	}()
	if v := replay(cfg, mode, pol, fault, script, shadows, k); v != nil {
		vs = []Violation{*v}
	}
	return vs
}

// reference runs the script without crashing, returning the primitive index
// of the first script operation, the total primitive count, the shadow heap
// of every committed epoch, and (when cfg.Trace) the run's phase recorder.
func reference(cfg Config, mode Mode, script []Step) (first, total int64, shadows map[uint64][]byte, rec *obs.Recorder, err error) {
	dev, c, err := mode.fresh(cfg)
	if err != nil {
		return 0, 0, nil, nil, err
	}
	if cfg.Trace {
		rec = obs.NewRecorder(dev.Clock())
		if tb, ok := c.(obs.Traceable); ok {
			tb.SetTrace(rec)
		}
	}
	first = dev.PrimitiveCount()
	shadows = map[uint64][]byte{0: make([]byte, c.Size())}
	runScript(c, script, shadows)
	return first, dev.PrimitiveCount(), shadows, rec, nil
}

// runScript executes the script, recording in shadows the exact state each
// epoch commits. Panics (injected crashes) propagate to the caller.
func runScript(c System, script []Step, shadows map[uint64][]byte) {
	epoch := c.CommittedEpoch()
	for _, st := range script {
		if st.Checkpoint {
			if shadows != nil {
				snap := make([]byte, c.Size())
				copy(snap, c.Bytes())
				shadows[epoch+1] = snap
			}
			if err := c.Checkpoint(); err != nil {
				panic(err)
			}
			epoch++
			continue
		}
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], st.Val)
		c.OnWrite(st.Off, 8)
		c.Write(st.Off, b[:])
	}
}

// replay reruns the script on a fresh device with a crash injected after
// primitive k, applies the policy, then recovers and verifies. Returns the
// violation found, or nil.
func replay(cfg Config, mode Mode, pol Policy, fault Fault, script []Step, shadows map[uint64][]byte, k int64) *Violation {
	dev, c, err := mode.fresh(cfg)
	if err != nil {
		return &Violation{Mode: mode.Name, Policy: pol.Name, Fault: fault.Name, Index: k, Stage: "setup", Detail: err.Error()}
	}
	// k is an absolute primitive index (counted from device creation, like
	// the reference run); the countdown starts now, after Format already
	// consumed dev.PrimitiveCount() primitives.
	dev.FailAfter(k - dev.PrimitiveCount())
	crash, ok := runToCrash(c, script)
	if !ok {
		// The countdown never fired (k beyond this run — cannot happen when
		// k < total from the reference, since runs are deterministic).
		return &Violation{Mode: mode.Name, Policy: pol.Name, Fault: fault.Name, Index: k, Stage: "setup",
			Detail: "replay diverged from reference: crash point never reached"}
	}
	dev.CrashWith(pol.New(k))
	if fault.Inject != nil {
		fault.Inject(cfg, dev, k)
	}

	v := &Violation{Mode: mode.Name, Policy: pol.Name, Fault: fault.Name, Index: crash.Index, Kind: crash.Kind}
	rc, err := mode.reopen(cfg, dev)
	if err != nil {
		v.Stage, v.Detail = "reopen", err.Error()
		return v
	}
	e := rc.CommittedEpoch()
	shadow, ok := shadows[e]
	if !ok {
		v.Stage, v.Detail = "shadow-diff", fmt.Sprintf("recovered to epoch %d, never committed by the reference", e)
		return v
	}
	if got := rc.Bytes(); !bytes.Equal(got, shadow) {
		v.Stage, v.Detail = "shadow-diff", fmt.Sprintf("heap differs from committed epoch %d at byte %d", e, firstDiff(got, shadow))
		return v
	}
	// The region fsck applies only to core containers; external backends'
	// packages own their format checks.
	if cc, isCore := rc.(*core.Container); isCore {
		if r := region.Check(dev, cc.Layout(), false); !r.OK() {
			v.Stage, v.Detail = "fsck", r.Issues[0]
			return v
		}
	}
	if cfg.Liveness {
		if detail := checkLiveness(cfg, mode, dev, rc, e); detail != "" {
			v.Stage, v.Detail = "liveness", detail
			return v
		}
	}
	return nil
}

// runToCrash executes the script expecting an injected crash; ok reports
// whether one fired.
func runToCrash(c System, script []Step) (crash nvm.InjectedCrash, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			ic, isCrash := r.(nvm.InjectedCrash)
			if !isCrash {
				panic(r)
			}
			crash, ok = ic, true
		}
	}()
	runScript(c, script, nil)
	return nvm.InjectedCrash{}, false
}

// checkLiveness verifies the recovered container still functions: write,
// checkpoint, clean restart, reread.
func checkLiveness(cfg Config, mode Mode, dev *nvm.Device, c System, e uint64) string {
	const probe = uint64(0xD15EA5ED0DDBA11)
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], probe)
	c.OnWrite(0, 8)
	c.Write(0, b[:])
	if err := c.Checkpoint(); err != nil {
		return fmt.Sprintf("checkpoint after recovery: %v", err)
	}
	dev.CrashDropAll()
	rc, err := mode.reopen(cfg, dev)
	if err != nil {
		return fmt.Sprintf("reopen after post-recovery checkpoint: %v", err)
	}
	if got := binary.LittleEndian.Uint64(rc.Bytes()); got != probe {
		return fmt.Sprintf("post-recovery write lost: read %#x", got)
	}
	if rc.CommittedEpoch() != e+1 {
		return fmt.Sprintf("post-recovery epoch %d, want %d", rc.CommittedEpoch(), e+1)
	}
	return ""
}

// firstDiff returns the index of the first differing byte.
func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
