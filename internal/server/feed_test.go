package server

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"libcrpm/internal/mpi"
	"libcrpm/internal/workload"
)

// routedOp is what a shard sees of one request.
type routedOp struct {
	seq int
	op  workload.Op
}

// TestFeedMatchesMaterialised is the feed ≡ materialised property: walking
// the batch feed and keeping the ops whose slot a shard owns yields, per
// shard, exactly the (seq, op) sequence the service used to materialise up
// front — fresh generators drawn round-robin, routed by the boot ring — for
// plain and resharding configs alike (the latter used one global stream:
// the concatenated batches must equal it, with every slot matching the
// boot ring's hash of the key).
func TestFeedMatchesMaterialised(t *testing.T) {
	plain := smallCfg()
	plain.Ops = 5000 // not a multiple of BatchOps: the last batch is short
	resharding := plain
	resharding.Migrations = []MigrateSpec{{Kind: MigrateSplit, Src: 0, AfterCuts: 2}}
	crud := plain
	crud.Mix = workload.YCSBCrud
	crud.Clients = 3
	for name, cfg := range map[string]Config{"plain": plain, "resharding": resharding, "crud": crud} {
		t.Run(name, func(t *testing.T) {
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// The old New, verbatim: one generator per client, ops drawn in
			// global order, each routed to its shard's queue.
			gens := s.newGenerators()
			want := make([][]routedOp, s.cfg.Shards)
			var global []routedOp
			for i := 0; i < s.cfg.Ops; i++ {
				op := gens[i%s.cfg.Clients].Next()
				sh := s.ring.Owner(op.Key)
				want[sh] = append(want[sh], routedOp{i, op})
				global = append(global, routedOp{i, op})
			}

			f := s.newFeed()
			got := make([][]routedOp, s.cfg.Shards)
			var stream []routedOp
			for b := 0; b < s.batches; b++ {
				batch := f.batch(b)
				if wantLen := min(s.cfg.BatchOps, s.cfg.Ops-b*s.cfg.BatchOps); len(batch) != wantLen {
					t.Fatalf("batch %d holds %d ops, want %d", b, len(batch), wantLen)
				}
				for _, so := range batch {
					if so.slot != s.ring.Slot(so.op.Key) {
						t.Fatalf("seq %d: slot %d, ring hashes key %d to %d", so.seq, so.slot, so.op.Key, s.ring.Slot(so.op.Key))
					}
					owner := s.ring.OwnerOfSlot(so.slot)
					got[owner] = append(got[owner], routedOp{so.seq, so.op})
					stream = append(stream, routedOp{so.seq, so.op})
				}
			}
			if f.batch(s.batches) != nil {
				t.Fatal("feed yields ops past the end of the run")
			}
			if !reflect.DeepEqual(stream, global) {
				t.Fatal("concatenated batches differ from the materialised global stream")
			}
			for sh := range want {
				if !reflect.DeepEqual(got[sh], want[sh]) {
					t.Fatalf("shard %d: feed yields %d ops, materialised stream %d (or contents differ)", sh, len(got[sh]), len(want[sh]))
				}
			}
		})
	}
}

// TestFeedWindow pins the feed's recycling contract: a batch stays valid
// while its successor is drawn (two ranks may be one batch apart), repeat
// requests return the same ops, and a request outside the two-batch
// lockstep window panics instead of returning recycled memory.
func TestFeedWindow(t *testing.T) {
	s, err := New(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	f := s.newFeed()
	b0 := f.batch(0)
	first := b0[0]
	b1 := f.batch(1)
	if b0[0] != first || &f.batch(0)[0] != &b0[0] {
		t.Fatal("batch 0 was disturbed by drawing batch 1")
	}
	if b1[0].seq != s.cfg.BatchOps || &f.batch(1)[0] != &b1[0] {
		t.Fatalf("batch 1 starts at seq %d or was redrawn", b1[0].seq)
	}
	f.batch(2) // recycles batch 0's storage
	for _, b := range []int{0, 4} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "lockstep") {
					t.Fatalf("batch %d outside the window: recovered %v, want a lockstep panic", b, r)
				}
			}()
			f.batch(b)
		}()
	}
}

// TestFeedConcurrentLockstep drives the feed the way the ranks do — every
// consumer walks every batch, prefetches the next, and meets the others at
// a barrier per batch — and requires each to see the identical stream.
// Under -race this also checks the recycling is ordered by the barrier.
func TestFeedConcurrentLockstep(t *testing.T) {
	s, err := New(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	f := s.newFeed()
	const ranks = 4
	sums := make([]uint64, ranks)
	mpi.NewWorld(ranks).Run(func(c *mpi.Comm) {
		r := c.Rank()
		for b := 0; b < s.batches; b++ {
			for _, so := range f.batch(b) {
				sums[r] = sums[r]*31 + uint64(so.seq) ^ so.op.Key ^ so.op.Value
			}
			f.batch(b + 1)
			c.Barrier()
		}
	})
	for r := 1; r < ranks; r++ {
		if sums[r] != sums[0] {
			t.Fatalf("rank %d saw a different stream than rank 0", r)
		}
	}
}
