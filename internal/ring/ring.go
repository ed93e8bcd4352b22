// Package ring implements the deterministic consistent-hash ring behind
// the sharded service's elastic resharding: a fixed slot space partitioned
// into equal virtual nodes, point-hashed with the splitmix64 finalizer, and
// mutated only by whole-slot reassignments (split, merge, migrate), so a
// ring change moves exactly the chosen keyspan and nothing else.
//
// Layout. The ring fixes its slot space at boot: shards*vnodes equal
// slots, each a virtual node, with slot s initially owned by shard s %
// shards. A key's point is splitmix64(key); its slot is point % slots; its
// owner is the slot's current assignee. Because the boot assignment is
// modulo over the slot index and the slot count is a multiple of the boot
// shard count, boot-ring lookup is exactly
//
//	splitmix64(key) % shards
//
// — byte-identical to the fixed modulo router it replaces, for every shard
// count (pinned by TestRingMatchesModuloRouting). Growing the service does
// not re-hash: a split reassigns half the source shard's slots to the new
// shard, so ownership changes only inside the moved span — the
// consistent-hashing property that makes live migration's transfer volume
// proportional to the moved keyspan, not the keyspace.
//
// History. The ring is a table: it knows who owns what now, and nothing of
// how it came to. The service binds each live flip to the checkpoint epoch
// whose commit+barrier published it and keeps that history itself
// (server.RingFlip); crash recovery that lands on an earlier cut replays the
// flips up to it over a boot ring to match.
package ring

import "fmt"

// DefaultVnodes is the virtual-node count per boot shard. 16 slots per
// shard keeps the maximum post-split imbalance between two shards that
// share a former shard's keyspace at 1/16 of that shard's load.
const DefaultVnodes = 16

// Hash is the splitmix64 finalizer: the ring's point hash. It spreads
// adjacent keys uniformly over the 64-bit point space, so sequential key
// ranges load-balance across slots.
func Hash(key uint64) uint64 {
	key ^= key >> 30
	key *= 0xbf58476d1ce4e5b9
	key ^= key >> 27
	key *= 0x94d049bb133111eb
	key ^= key >> 31
	return key
}

// Span is a set of slots being reassigned together: the unit of split,
// merge, and migrate. Slots are ascending and unique.
type Span struct {
	Slots []int
}

// Len returns the slot count of the span.
func (sp Span) Len() int { return len(sp.Slots) }

// Ring is the ownership table. It is not safe for concurrent mutation; the
// service gives every rank its own Clone and applies identical flips at
// identical global boundaries.
type Ring struct {
	slots  []int // slot -> owning shard
	shards int   // shard id space size (max id ever assigned + 1)
}

// New builds the boot ring: shards*vnodes slots, slot s owned by shard
// s % shards.
func New(shards, vnodes int) *Ring {
	if shards < 1 {
		panic(fmt.Sprintf("ring: %d shards", shards))
	}
	if vnodes < 1 {
		panic(fmt.Sprintf("ring: %d virtual nodes per shard", vnodes))
	}
	r := &Ring{
		slots:  make([]int, shards*vnodes),
		shards: shards,
	}
	for s := range r.slots {
		r.slots[s] = s % shards
	}
	return r
}

// Clone returns an independent copy sharing no mutable state.
func (r *Ring) Clone() *Ring {
	return &Ring{slots: r.Table(), shards: r.shards}
}

// Shards returns the shard id space size: every shard id ever assigned is
// below it. A shard may own zero slots (retired by a merge).
func (r *Ring) Shards() int { return r.shards }

// Slot returns the slot a key's point falls in.
func (r *Ring) Slot(key uint64) int {
	return int(Hash(key) % uint64(len(r.slots)))
}

// Owner returns the shard currently owning a key.
func (r *Ring) Owner(key uint64) int { return r.slots[r.Slot(key)] }

// OwnerOfSlot returns the shard currently owning a slot.
func (r *Ring) OwnerOfSlot(slot int) int { return r.slots[slot] }

// Weight returns the number of slots a shard owns.
func (r *Ring) Weight(shard int) int {
	n := 0
	for _, o := range r.slots {
		if o == shard {
			n++
		}
	}
	return n
}

// OwnedSlots returns a shard's slots, ascending.
func (r *Ring) OwnedSlots(shard int) []int {
	var out []int
	for s, o := range r.slots {
		if o == shard {
			out = append(out, s)
		}
	}
	return out
}

// Table returns a copy of the current ownership table.
func (r *Ring) Table() []int { return append([]int(nil), r.slots...) }

// SplitSpan selects the half of src's slots a split (or a half-move) hands
// off: every other owned slot, ascending — deterministic, and interleaved
// so both halves keep the slot-space spread that balances hashed load.
func (r *Ring) SplitSpan(src int) (Span, error) {
	owned := r.OwnedSlots(src)
	if len(owned) < 2 {
		return Span{}, fmt.Errorf("ring: shard %d owns %d slots, cannot split", src, len(owned))
	}
	var sp Span
	for i := 1; i < len(owned); i += 2 {
		sp.Slots = append(sp.Slots, owned[i])
	}
	return sp, nil
}

// AllSpan is src's entire keyspace: the span a merge moves before the
// shard retires.
func (r *Ring) AllSpan(src int) Span {
	return Span{Slots: r.OwnedSlots(src)}
}

// Move reassigns a span to dst. dst == Shards() grows the shard id space by
// one (a split's fresh shard); larger ids are rejected so ids stay dense.
// Every slot must currently have a single owner != dst.
func (r *Ring) Move(sp Span, dst int) error {
	if dst < 0 || dst > r.shards {
		return fmt.Errorf("ring: move to shard %d outside dense id space [0,%d]", dst, r.shards)
	}
	if len(sp.Slots) == 0 {
		return fmt.Errorf("ring: empty span")
	}
	for i, s := range sp.Slots {
		if s < 0 || s >= len(r.slots) {
			return fmt.Errorf("ring: slot %d out of range [0,%d)", s, len(r.slots))
		}
		if i > 0 && s <= sp.Slots[i-1] {
			return fmt.Errorf("ring: span slots not ascending at %d", s)
		}
		if r.slots[s] == dst {
			return fmt.Errorf("ring: slot %d already owned by shard %d", s, dst)
		}
	}
	if dst == r.shards {
		r.shards++
	}
	for _, s := range sp.Slots {
		r.slots[s] = dst
	}
	return nil
}

// SlotSet returns a span's slots as a set, the form migration filters key
// traffic with.
func (sp Span) SlotSet() map[int]bool {
	set := make(map[int]bool, len(sp.Slots))
	for _, s := range sp.Slots {
		set[s] = true
	}
	return set
}
