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
	journals []map[uint64]undo
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
	j := o.journals[len(o.journals)-1]
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
		clear(o.journals[drop])
		o.free = append(o.free, o.journals[drop])
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
	o.journals = append(o.journals, j)
}

// retains reports whether epoch's image can still be reconstructed.
func (o *oracle) retains(epoch uint64) bool {
	return epoch >= o.first && epoch-o.first < uint64(len(o.journals))
}

// at is the point lookup into a retained cut's image: the oldest journal
// from that cut on that saw the key knows what it held then; a key no
// journal saw has not changed since.
func (o *oracle) at(epoch, key uint64) (val uint64, ok bool) {
	for _, j := range o.journals[epoch-o.first:] {
		if u, seen := j[key]; seen {
			return u.val, u.had
		}
	}
	val, ok = o.live[key]
	return val, ok
}

// snapAt materialises a retained cut's full image (crash and end-of-run
// verification only — never per request).
func (o *oracle) snapAt(epoch uint64) (map[uint64]uint64, bool) {
	if !o.retains(epoch) {
		return nil, false
	}
	img := make(map[uint64]uint64, len(o.live))
	for k, v := range o.live {
		img[k] = v
	}
	for i := len(o.journals) - 1; i >= int(epoch-o.first); i-- {
		for k, u := range o.journals[i] {
			if u.had {
				img[k] = u.val
			} else {
				delete(img, k)
			}
		}
	}
	return img, true
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
