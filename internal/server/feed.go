package server

import (
	"fmt"
	"sync"

	"libcrpm/internal/ring"
	"libcrpm/internal/sched"
	"libcrpm/internal/workload"
)

// seqOp is one request with its global sequence number (the round-robin
// interleave position across all client streams) and the ring slot its key
// falls in. The slot space is fixed for the run — resharding reassigns
// whole slots, never re-hashes — so a rank owns the op iff its ring says
// it owns the slot, with or without migrations.
type seqOp struct {
	seq  int
	slot int
	op   workload.Op
}

// newGenerators builds the run's client streams: client i issues global
// requests i, i+Clients, ..., seeded from a sched.SeedFor label, so the
// request sequence is a pure function of the config.
func (s *Service) newGenerators() []*workload.Generator {
	gens := make([]*workload.Generator, s.cfg.Clients)
	for i := range gens {
		seed := sched.SeedFor(fmt.Sprintf("serve/%d/client/%d", s.cfg.Seed, i))
		gens[i] = workload.NewGenerator(s.cfg.Mix, s.cfg.Keys, i, s.cfg.Clients, seed)
	}
	return gens
}

// opFeed streams the run's requests one global batch at a time instead of
// materialising them up front. The ranks serve in lockstep — every batch
// boundary ends in a collective — so at any instant they read at most two
// consecutive batches: the feed holds exactly two, drawn on first request
// and recycled in place, and its memory is bounded by the batch size
// however long the run is. Batches must be requested in order (a rank that
// joins mid-run starts at a batch its peers have reached).
type opFeed struct {
	mu    sync.Mutex
	gens  []*workload.Generator
	ring  *ring.Ring // boot ring: slot hashing only
	ops   int        // total requests
	per   int        // requests per batch
	next  int        // next batch to draw
	slots [2][]seqOp // batch b lives in slots[b%2]
}

func (s *Service) newFeed() *opFeed {
	return &opFeed{gens: s.newGenerators(), ring: s.router.Ring(), ops: s.cfg.Ops, per: s.cfg.BatchOps}
}

// batch returns global batch b — requests [b*per, (b+1)*per) in sequence
// order — valid until batch b+2 is requested. Past the end it is empty.
func (f *opFeed) batch(b int) []seqOp {
	lo := b * f.per
	if lo >= f.ops {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	buf := &f.slots[b%2]
	switch {
	case b == f.next:
		*buf = (*buf)[:0]
		for seq, hi := lo, min(lo+f.per, f.ops); seq < hi; seq++ {
			op := f.gens[seq%len(f.gens)].Next()
			*buf = append(*buf, seqOp{seq: seq, slot: f.ring.Slot(op.Key), op: op})
		}
		f.next++
	case b > f.next || b < f.next-2:
		panic(fmt.Sprintf("server: op feed at batch %d asked for batch %d: ranks out of lockstep", f.next, b))
	}
	return *buf
}
