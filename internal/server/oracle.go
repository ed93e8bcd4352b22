package server

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
type oracle struct {
	live     map[uint64]uint64
	first    uint64 // epoch of journals[0]
	journals []map[uint64]undo
	free     []map[uint64]undo // cleared journals awaiting reuse
}

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

func (o *oracle) del(key uint64) {
	o.touch(key)
	delete(o.live, key)
}

// cut marks the live state as the image of epoch next and drops every
// journal below floor (the oldest epoch a verifier may still ask for).
func (o *oracle) cut(next, floor uint64) {
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
