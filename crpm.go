// Package crpm is a Go reproduction of libcrpm — "libcrpm: Improving the
// Checkpoint Performance of NVM" (Ren, Chen, Wu; DAC 2022) — a programming
// library that gives applications checkpoint-recovery semantics on
// persistent memory via failure-atomic differential checkpointing:
// segment-level copy-on-write (two fences per segment) with
// block-granularity differential copies, solving both the write
// amplification of page-granularity incremental checkpointing (P1) and the
// fence overhead of fine-grained undo logging (P2).
//
// Because Go exposes neither clwb/sfence nor real persistent memory, the
// library runs on a simulated NVM device (an explicit cache-line
// persistence model with crash injection and a calibrated cost clock); see
// DESIGN.md. The full paper evaluation — baselines, persistent data
// structures, MPI mini-apps, and every table and figure — lives under
// internal/ and is driven by cmd/crpmbench and the root benchmarks.
//
// Quick start:
//
//	st, _ := crpm.CreateStore(crpm.Options{HeapSize: 64 << 20})
//	m, _ := st.NewHashMap(1 << 16)
//	st.SetRoot(0, uint64(m.Root()))
//	m.Put(1, 100)
//	st.Checkpoint()                  // durable point
//	m.Put(1, 999)                    // not yet durable
//	st.Device().Crash(rng)           // power failure
//	st2, _ := crpm.OpenStore(st.Device(), crpm.Options{HeapSize: 64 << 20})
//	m2, _ := st2.OpenHashMap(int(st2.Root(0)))
//	v, _ := m2.Get(1)                // v == 100
package crpm

import (
	"io"

	"libcrpm/internal/alloc"
	"libcrpm/internal/ckpt"
	"libcrpm/internal/core"
	"libcrpm/internal/heap"
	"libcrpm/internal/nvm"
	"libcrpm/internal/obs"
	"libcrpm/internal/pds"
	"libcrpm/internal/region"
)

// Re-exported building blocks. The concrete implementations live in
// internal packages; these aliases are the supported public surface.
type (
	// Device is the simulated NVM device: media plus a volatile cache with
	// explicit flush/fence/crash semantics.
	Device = nvm.Device
	// Clock is the deterministic simulated time source of a device.
	Clock = nvm.Clock
	// Stats carries device event counters (fences, media bytes, faults).
	Stats = nvm.Stats
	// CostModel holds the simulated latency/bandwidth constants.
	CostModel = nvm.CostModel
	// Container is a libcrpm container: a heap with checkpoint-recovery
	// semantics under the failure-atomic differential protocol.
	Container = core.Container
	// ContainerOptions configures a container directly (advanced use; most
	// callers use Options + CreateStore).
	ContainerOptions = core.Options
	// Mode selects NVM-resident (default) or DRAM-buffered operation.
	Mode = core.Mode
	// Collective coordinates multi-threaded collective checkpoints.
	Collective = core.Collective
	// Allocator is the persistent allocator with the root-pointer array.
	Allocator = alloc.Allocator
	// Heap provides instrumented typed access to container memory.
	Heap = heap.Heap
	// HashMap is the persistent unordered map (open chaining).
	HashMap = pds.HashMap
	// RBMap is the persistent ordered map (red-black tree).
	RBMap = pds.RBMap
	// Vector is the persistent growable array.
	Vector = pds.Vector
	// Backend is the checkpoint-system interface all systems implement.
	Backend = ckpt.Backend
	// Recorder collects phase spans and metrics on the simulated clock;
	// attach one via Options.Trace (or Container.SetTrace) and export with
	// WriteChromeTrace. Nil recorders disable tracing at zero cost.
	Recorder = obs.Recorder
	// Span is one phase-attributed interval of simulated time.
	Span = obs.Span
	// TraceData is an ordered collection of labelled recorder snapshots
	// ready for Chrome-trace/CSV export.
	TraceData = obs.Trace
)

// Container modes.
const (
	// ModeDefault keeps working state in the NVM main region (§3.4).
	ModeDefault = core.ModeDefault
	// ModeBuffered keeps working state in DRAM (§3.5).
	ModeBuffered = core.ModeBuffered
)

// NewDevice creates a simulated NVM device of the given byte size. Close it
// when done: its memory then goes to the next device of the same size, and
// the DRAM its containers took for their working images (buffered mode's
// buffer) is unmapped, so no Store on it may be used afterwards.
func NewDevice(size int, opts ...nvm.Option) *Device { return nvm.NewDevice(size, opts...) }

// DefaultCostModel returns the calibrated simulation constants.
func DefaultCostModel() CostModel { return nvm.DefaultCostModel() }

// EADRCostModel returns constants for an eADR platform (durable CPU cache,
// paper footnote 2), where flush and fence instructions cost almost nothing.
func EADRCostModel() CostModel { return nvm.EADRCostModel() }

// ReadDeviceFrom reconstructs a device from an image produced by
// Device.WriteMediaTo, enabling real cross-process persistence of the
// simulated NVM.
func ReadDeviceFrom(r io.Reader, opts ...nvm.Option) (*Device, error) {
	return nvm.ReadDeviceFrom(r, opts...)
}

// NewRecorder creates a phase recorder on the device's simulated clock.
// Pass it via Options.Trace; snapshot with (*TraceData).Add and export with
// WriteChromeTrace.
func NewRecorder(dev *Device) *Recorder { return obs.NewRecorder(dev.Clock()) }

// WriteChromeTrace serializes a trace in Chrome trace-event JSON, loadable
// by Perfetto (ui.perfetto.dev) and chrome://tracing. Because every
// timestamp is simulated, the bytes are a pure function of the workload.
func WriteChromeTrace(w io.Writer, tr *TraceData) error { return obs.WriteChromeTrace(w, tr) }

// Options configures a Store, the high-level entry point.
type Options struct {
	// HeapSize is the application-visible capacity. Required.
	HeapSize int
	// SegmentSize is the copy-on-write granularity (default 2 MB).
	SegmentSize int
	// BlockSize is the differential-copy granularity (default 256 B).
	BlockSize int
	// BackupRatio is backup-region capacity relative to the main region
	// (default 1.0).
	BackupRatio float64
	// Mode selects ModeDefault or ModeBuffered.
	Mode Mode
	// Concurrent allows multiple goroutines to write the container.
	Concurrent bool
	// Checksums guards the persistent metadata with CRC64s and a
	// self-repairing shadow copy (format v2). Sticky on media:
	// OpenStore auto-detects it regardless of this flag.
	Checksums bool
	// Trace attaches a phase recorder to the container: checkpoint, CoW,
	// and recovery phases emit spans on the simulated clock. Nil disables
	// tracing at zero cost.
	Trace *Recorder
}

func (o Options) containerOptions() core.Options {
	return core.Options{
		Region: region.Config{
			HeapSize:    o.HeapSize,
			SegmentSize: o.SegmentSize,
			BlockSize:   o.BlockSize,
			BackupRatio: o.BackupRatio,
			Checksums:   o.Checksums,
		},
		Mode:       o.Mode,
		Concurrent: o.Concurrent,
		Trace:      o.Trace,
	}
}

// DeviceSize returns the NVM capacity the options require (metadata + main
// + backup regions).
func (o Options) DeviceSize() (int, error) {
	l, err := region.NewLayout(o.containerOptions().Region)
	if err != nil {
		return 0, err
	}
	return l.DeviceSize(), nil
}

// Store bundles a device, a container, and the persistent allocator — the
// common "open a persistent heap, find my objects" workflow of §3.2.
type Store struct {
	dev *Device
	ctr *Container
	a   *Allocator
	h   *Heap
}

// CreateStore formats a fresh store on a new device sized to fit.
func CreateStore(o Options) (*Store, error) {
	size, err := o.DeviceSize()
	if err != nil {
		return nil, err
	}
	return CreateStoreOn(nvm.NewDevice(size), o)
}

// CreateStoreOn formats a fresh store on an existing device.
func CreateStoreOn(dev *Device, o Options) (*Store, error) {
	ctr, err := core.NewContainer(dev, o.containerOptions())
	if err != nil {
		return nil, err
	}
	h := heap.New(ctr)
	a, err := alloc.Format(h)
	if err != nil {
		return nil, err
	}
	return &Store{dev: dev, ctr: ctr, a: a, h: h}, nil
}

// OpenStore reopens a store after a restart or crash, running the recovery
// protocol so the working state equals the last committed checkpoint.
func OpenStore(dev *Device, o Options) (*Store, error) {
	ctr, err := core.OpenContainer(dev, o.containerOptions())
	if err != nil {
		return nil, err
	}
	h := heap.New(ctr)
	a, err := alloc.Open(h)
	if err != nil {
		return nil, err
	}
	return &Store{dev: dev, ctr: ctr, a: a, h: h}, nil
}

// Device returns the underlying device (crash injection, stats, clock).
func (s *Store) Device() *Device { return s.dev }

// Container returns the underlying container (metrics, collective use).
func (s *Store) Container() *Container { return s.ctr }

// Allocator returns the persistent allocator.
func (s *Store) Allocator() *Allocator { return s.a }

// Heap returns the instrumented heap for direct typed access.
func (s *Store) Heap() *Heap { return s.h }

// Checkpoint commits the current state as the recoverable checkpoint
// (crpm_checkpoint, §3.2).
func (s *Store) Checkpoint() error { return s.ctr.Checkpoint() }

// SetRoot stores a root pointer used to find objects after recovery.
func (s *Store) SetRoot(i int, off uint64) { s.a.SetRoot(i, off) }

// Root loads a root pointer.
func (s *Store) Root(i int) uint64 { return s.a.Root(i) }

// Alloc reserves n bytes of persistent memory.
func (s *Store) Alloc(n int) (int, error) { return s.a.Alloc(n) }

// Free releases an allocation.
func (s *Store) Free(off int) { s.a.Free(off) }

// NewHashMap allocates a persistent hash map inside the store.
func (s *Store) NewHashMap(buckets int) (*HashMap, error) {
	return pds.NewHashMap(s.a, buckets)
}

// OpenHashMap re-attaches to a hash map by its root offset.
func (s *Store) OpenHashMap(root int) (*HashMap, error) {
	return pds.OpenHashMap(s.a, root)
}

// NewRBMap allocates a persistent ordered map inside the store.
func (s *Store) NewRBMap() (*RBMap, error) {
	return pds.NewRBMap(s.a)
}

// OpenRBMap re-attaches to an ordered map by its root offset.
func (s *Store) OpenRBMap(root int) (*RBMap, error) {
	return pds.OpenRBMap(s.a, root)
}

// NewVector allocates a persistent growable array inside the store.
func (s *Store) NewVector() (*Vector, error) {
	return pds.NewVector(s.a)
}

// OpenVector re-attaches to a vector by its root offset.
func (s *Store) OpenVector(root int) (*Vector, error) {
	return pds.OpenVector(s.a, root)
}
