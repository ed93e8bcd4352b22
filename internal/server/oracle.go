package server

import (
	"fmt"

	"libcrpm/internal/replica"
)

// undo is one journal entry: a key's state at the cut the journal opened
// at (had=false: the key was absent).
type undo struct {
	val uint64
	had bool
}

// journal is one interval's undo entries and the live map's size at the
// cut it opened at: the size of that cut's image.
type journal struct {
	undo map[uint64]undo
	size int
}

// oracle is a shard's verification model: the live map mirrors every acked
// mutation, and a per-epoch undo journal stands in for a full copy of it at
// every retained cut. Journal i covers the interval after cut first+i (up
// to the next cut, or to now for the last one) and records, on a key's
// first mutation in that interval, what the key held at the cut. A cut is
// therefore O(1) — open a fresh journal, recycle the ones that fell out of
// retention — and the image of any retained cut is the live map with the
// journals from that cut on undone, oldest last.
//
// Cut epochs are a shard's LOCAL committed epochs and arrive consecutively
// (every snapshotForNextCut is followed by exactly one commit).
//
// Under replication the oracle also keeps every client's session on the
// shard and checks each routed read against the guarantee its SLA names
// (read). A mutation's epoch is the one the oracle's next cut marks — its
// own record, not the backend's.
type oracle struct {
	live     map[uint64]uint64
	first    uint64 // epoch of journals[0]
	journals []journal
	free     []map[uint64]undo // cleared journals awaiting reuse
	marked   uint64            // epoch of the last cut
	sessions []session         // per client (replicated runs only)
}

// session is one client's history on the shard: the epoch its latest
// mutation commits in, and the newest view it has observed.
type session struct{ wrote, saw uint64 }

func newOracle() *oracle {
	return &oracle{live: make(map[uint64]uint64)}
}

// touch journals key's pre-mutation state unless this interval already
// holds an older one. Before the first cut there is nothing to roll back
// to and nothing is recorded.
func (o *oracle) touch(key uint64) {
	if len(o.journals) == 0 {
		return
	}
	j := o.journals[len(o.journals)-1].undo
	if _, seen := j[key]; !seen {
		v, had := o.live[key]
		j[key] = undo{val: v, had: had}
	}
}

func (o *oracle) put(key, val uint64) {
	o.touch(key)
	o.live[key] = val
}

// add mirrors a read-modify-write from the oracle's own state, never from
// what the KV read back: a value only the KV got wrong stays wrong there.
func (o *oracle) add(key, delta uint64) { o.put(key, o.live[key]+delta) }

func (o *oracle) del(key uint64) {
	o.touch(key)
	delete(o.live, key)
}

// cut marks the live state as the image of epoch next and drops every
// journal below floor (the oldest epoch a verifier may still ask for).
func (o *oracle) cut(next, floor uint64) {
	o.marked = next
	drop := 0
	for drop < len(o.journals) && o.first < floor {
		clear(o.journals[drop].undo)
		o.free = append(o.free, o.journals[drop].undo)
		drop++
		o.first++
	}
	// Shift down rather than re-slice, so the backing array is reused.
	o.journals = o.journals[:copy(o.journals, o.journals[drop:])]
	if len(o.journals) == 0 {
		o.first = next
	}
	var j map[uint64]undo
	if n := len(o.free); n > 0 {
		j, o.free = o.free[n-1], o.free[:n-1]
	} else {
		j = make(map[uint64]undo)
	}
	o.journals = append(o.journals, journal{j, len(o.live)})
}

// image is what a KV must hold, looked up rather than copied: live with
// undo, the journals from a cut on, undone oldest last; n is the number of
// keys. The oracle's image of the open epoch, the one the next cut marks,
// is its live map itself, as is a shard's share of a sequential replay.
type image struct {
	live map[uint64]uint64
	undo []journal
	n    int
}

func (o *oracle) open() image { return image{live: o.live, n: len(o.live)} }

// at is a retained cut's image (false if the epoch fell out of retention
// or was never marked).
func (o *oracle) at(epoch uint64) (image, bool) {
	if epoch < o.first || epoch-o.first >= uint64(len(o.journals)) {
		return image{}, false
	}
	js := o.journals[epoch-o.first:]
	return image{live: o.live, undo: js, n: js[0].size}, true
}

// get is the point lookup: the oldest journal that saw the key knows what
// it held at the cut; a key no journal saw has not changed since.
func (im image) get(key uint64) (uint64, bool) {
	for _, j := range im.undo {
		if u, seen := j.undo[key]; seen {
			return u.val, u.had
		}
	}
	v, ok := im.live[key]
	return v, ok
}

// each calls f for every key of the image with its value, a key both the
// live map and a journal hold more than once. It walks the whole live map:
// for the failure path only.
func (im image) each(f func(key, val uint64)) {
	visit := func(k uint64) {
		if v, ok := im.get(k); ok {
			f(k, v)
		}
	}
	for k := range im.live {
		visit(k)
	}
	for _, j := range im.undo {
		for k := range j.undo {
			visit(k)
		}
	}
}

// wrote records a mutation by client, which commits in the epoch the next cut
// marks; a read-modify-write has also observed that epoch's state.
func (o *oracle) wrote(client int, rmw bool) {
	s := &o.sessions[client]
	s.wrote = o.marked + 1
	if rmw {
		s.saw = max(s.saw, s.wrote)
	}
}

// read checks one routed read against client's session and returns what it
// broke, if anything: a strong read never leaves the primary, a
// read-my-writes view covers the client's latest mutation, a monotonic view
// never regresses, and a bounded view trails the committed epoch by at most
// the bound. sec is the serving secondary and view its installed cut; a
// primary read (sec < 0) observes the live state, the epoch the next cut
// marks. The view is then folded into the session.
func (o *oracle) read(client int, sla replica.SLA, sec int, view, committed uint64) string {
	s := &o.sessions[client]
	if sec < 0 {
		view = o.marked + 1
	}
	var bad string
	switch {
	case sla.Level == replica.Strong && sec >= 0:
		bad = fmt.Sprintf("strong read served by replica %d", sec)
	case sla.Level == replica.ReadMyWrites && view < s.wrote:
		bad = fmt.Sprintf("view %d misses the client's write in epoch %d", view, s.wrote)
	case sla.Level == replica.Monotonic && view < s.saw:
		bad = fmt.Sprintf("view %d regresses below observed epoch %d", view, s.saw)
	case sla.Level == replica.BoundedStaleness && view+sla.Bound < committed:
		bad = fmt.Sprintf("view %d trails committed epoch %d beyond bound %d", view, committed, sla.Bound)
	}
	s.saw = max(s.saw, view)
	return bad
}
