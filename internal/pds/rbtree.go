package pds

import (
	"errors"
	"fmt"

	"libcrpm/internal/alloc"
	"libcrpm/internal/heap"
)

// RBMap is a persistent red-black tree (the paper's map, mirroring the STL
// std::map it wraps with CrpmAllocator). Keys are ordered uint64s; all node
// links are heap offsets.
type RBMap struct {
	h    *heap.Heap
	a    *alloc.Allocator
	head int
}

// Tree header fields.
const (
	rtRoot     = 0
	rtSize     = 8
	rtHeaderSz = 16
)

// Node fields.
const (
	rnKey    = 0
	rnVal    = 8
	rnLeft   = 16
	rnRight  = 24
	rnParent = 32
	rnColor  = 40 // 0 = black, 1 = red
	rnSize   = 41
)

const (
	black = 0
	red   = 1
)

// NewRBMap allocates an empty tree.
func NewRBMap(a *alloc.Allocator) (*RBMap, error) {
	head, err := a.Alloc(rtHeaderSz)
	if err != nil {
		return nil, err
	}
	h := a.Heap()
	h.WriteU64(head+rtRoot, 0)
	h.WriteU64(head+rtSize, 0)
	return &RBMap{h: h, a: a, head: head}, nil
}

// OpenRBMap attaches to an existing tree by its root offset.
func OpenRBMap(a *alloc.Allocator, root int) (*RBMap, error) {
	if root <= 0 || root >= a.Heap().Size() {
		return nil, fmt.Errorf("pds: invalid tree root %d", root)
	}
	return &RBMap{h: a.Heap(), a: a, head: root}, nil
}

// Root returns the offset to store in a root slot.
func (t *RBMap) Root() int { return t.head }

// Len implements KV.
func (t *RBMap) Len() int { return int(t.h.ReadU64(t.head + rtSize)) }

// Node accessors keep the rebalancing code readable.
func (t *RBMap) key(n int) uint64 { return t.h.ReadU64(n + rnKey) }
func (t *RBMap) left(n int) int   { return int(t.h.ReadU64(n + rnLeft)) }
func (t *RBMap) right(n int) int  { return int(t.h.ReadU64(n + rnRight)) }
func (t *RBMap) parent(n int) int { return int(t.h.ReadU64(n + rnParent)) }
func (t *RBMap) color(n int) uint8 {
	if n == 0 {
		return black // nil leaves are black
	}
	return t.h.ReadU8(n + rnColor)
}
func (t *RBMap) setLeft(n, v int)        { t.h.WriteU64(n+rnLeft, uint64(v)) }
func (t *RBMap) setRight(n, v int)       { t.h.WriteU64(n+rnRight, uint64(v)) }
func (t *RBMap) setParent(n, v int)      { t.h.WriteU64(n+rnParent, uint64(v)) }
func (t *RBMap) setColor(n int, c uint8) { t.h.WriteU8(n+rnColor, c) }
func (t *RBMap) root() int               { return int(t.h.ReadU64(t.head + rtRoot)) }
func (t *RBMap) setRoot(n int)           { t.h.WriteU64(t.head+rtRoot, uint64(n)) }

// Get implements KV.
func (t *RBMap) Get(key uint64) (uint64, bool) {
	n := t.root()
	for n != 0 {
		k := t.key(n)
		switch {
		case key < k:
			n = t.left(n)
		case key > k:
			n = t.right(n)
		default:
			return t.h.ReadU64(n + rnVal), true
		}
	}
	return 0, false
}

// Put implements KV: insert or update with standard red-black rebalancing.
func (t *RBMap) Put(key, value uint64) error {
	parent, n := 0, t.root()
	for n != 0 {
		k := t.key(n)
		switch {
		case key < k:
			parent, n = n, t.left(n)
		case key > k:
			parent, n = n, t.right(n)
		default:
			t.h.WriteU64(n+rnVal, value)
			return nil
		}
	}
	node, err := t.a.Alloc(rnSize)
	if err != nil {
		return err
	}
	t.h.WriteU64(node+rnKey, key)
	t.h.WriteU64(node+rnVal, value)
	t.setLeft(node, 0)
	t.setRight(node, 0)
	t.setParent(node, parent)
	t.setColor(node, red)
	if parent == 0 {
		t.setRoot(node)
	} else if key < t.key(parent) {
		t.setLeft(parent, node)
	} else {
		t.setRight(parent, node)
	}
	t.insertFixup(node)
	t.h.WriteU64(t.head+rtSize, t.h.ReadU64(t.head+rtSize)+1)
	return nil
}

func (t *RBMap) rotateLeft(x int) {
	y := t.right(x)
	t.setRight(x, t.left(y))
	if t.left(y) != 0 {
		t.setParent(t.left(y), x)
	}
	t.setParent(y, t.parent(x))
	if t.parent(x) == 0 {
		t.setRoot(y)
	} else if x == t.left(t.parent(x)) {
		t.setLeft(t.parent(x), y)
	} else {
		t.setRight(t.parent(x), y)
	}
	t.setLeft(y, x)
	t.setParent(x, y)
}

func (t *RBMap) rotateRight(x int) {
	y := t.left(x)
	t.setLeft(x, t.right(y))
	if t.right(y) != 0 {
		t.setParent(t.right(y), x)
	}
	t.setParent(y, t.parent(x))
	if t.parent(x) == 0 {
		t.setRoot(y)
	} else if x == t.right(t.parent(x)) {
		t.setRight(t.parent(x), y)
	} else {
		t.setLeft(t.parent(x), y)
	}
	t.setRight(y, x)
	t.setParent(x, y)
}

func (t *RBMap) insertFixup(z int) {
	for t.color(t.parent(z)) == red {
		p := t.parent(z)
		g := t.parent(p)
		if p == t.left(g) {
			u := t.right(g)
			if t.color(u) == red {
				t.setColor(p, black)
				t.setColor(u, black)
				t.setColor(g, red)
				z = g
			} else {
				if z == t.right(p) {
					z = p
					t.rotateLeft(z)
					p = t.parent(z)
					g = t.parent(p)
				}
				t.setColor(p, black)
				t.setColor(g, red)
				t.rotateRight(g)
			}
		} else {
			u := t.left(g)
			if t.color(u) == red {
				t.setColor(p, black)
				t.setColor(u, black)
				t.setColor(g, red)
				z = g
			} else {
				if z == t.left(p) {
					z = p
					t.rotateRight(z)
					p = t.parent(z)
					g = t.parent(p)
				}
				t.setColor(p, black)
				t.setColor(g, red)
				t.rotateLeft(g)
			}
		}
	}
	t.setColor(t.root(), black)
}

func (t *RBMap) minimum(n int) int {
	for t.left(n) != 0 {
		n = t.left(n)
	}
	return n
}

// transplant replaces subtree u with subtree v in u's parent.
func (t *RBMap) transplant(u, v int) {
	p := t.parent(u)
	if p == 0 {
		t.setRoot(v)
	} else if u == t.left(p) {
		t.setLeft(p, v)
	} else {
		t.setRight(p, v)
	}
	if v != 0 {
		t.setParent(v, p)
	}
}

// Delete removes a key, returning whether it was present (CLRS deletion
// with an explicit nil-node parent because links are offsets, not pointers).
func (t *RBMap) Delete(key uint64) bool {
	z := t.root()
	for z != 0 {
		k := t.key(z)
		if key < k {
			z = t.left(z)
		} else if key > k {
			z = t.right(z)
		} else {
			break
		}
	}
	if z == 0 {
		return false
	}
	y := z
	yColor := t.color(y)
	var x, xParent int
	switch {
	case t.left(z) == 0:
		x = t.right(z)
		xParent = t.parent(z)
		t.transplant(z, x)
	case t.right(z) == 0:
		x = t.left(z)
		xParent = t.parent(z)
		t.transplant(z, x)
	default:
		y = t.minimum(t.right(z))
		yColor = t.color(y)
		x = t.right(y)
		if t.parent(y) == z {
			xParent = y
			if x != 0 {
				t.setParent(x, y)
			}
		} else {
			xParent = t.parent(y)
			t.transplant(y, x)
			t.setRight(y, t.right(z))
			t.setParent(t.right(y), y)
		}
		t.transplant(z, y)
		t.setLeft(y, t.left(z))
		t.setParent(t.left(y), y)
		t.setColor(y, t.color(z))
	}
	if yColor == black {
		t.deleteFixup(x, xParent)
	}
	t.a.Free(z)
	t.h.WriteU64(t.head+rtSize, t.h.ReadU64(t.head+rtSize)-1)
	return true
}

// deleteFixup restores red-black properties after removing a black node.
// x may be 0 (a nil leaf), so its parent is threaded explicitly.
func (t *RBMap) deleteFixup(x, xParent int) {
	for x != t.root() && t.color(x) == black {
		if xParent == 0 {
			break
		}
		if x == t.left(xParent) {
			w := t.right(xParent)
			if t.color(w) == red {
				t.setColor(w, black)
				t.setColor(xParent, red)
				t.rotateLeft(xParent)
				w = t.right(xParent)
			}
			if t.color(t.left(w)) == black && t.color(t.right(w)) == black {
				t.setColor(w, red)
				x = xParent
				xParent = t.parent(x)
			} else {
				if t.color(t.right(w)) == black {
					t.setColor(t.left(w), black)
					t.setColor(w, red)
					t.rotateRight(w)
					w = t.right(xParent)
				}
				t.setColor(w, t.color(xParent))
				t.setColor(xParent, black)
				t.setColor(t.right(w), black)
				t.rotateLeft(xParent)
				x = t.root()
				xParent = 0
			}
		} else {
			w := t.left(xParent)
			if t.color(w) == red {
				t.setColor(w, black)
				t.setColor(xParent, red)
				t.rotateRight(xParent)
				w = t.left(xParent)
			}
			if t.color(t.right(w)) == black && t.color(t.left(w)) == black {
				t.setColor(w, red)
				x = xParent
				xParent = t.parent(x)
			} else {
				if t.color(t.left(w)) == black {
					t.setColor(t.right(w), black)
					t.setColor(w, red)
					t.rotateLeft(w)
					w = t.left(xParent)
				}
				t.setColor(w, t.color(xParent))
				t.setColor(xParent, black)
				t.setColor(t.left(w), black)
				t.rotateRight(xParent)
				x = t.root()
				xParent = 0
			}
		}
	}
	if x != 0 {
		t.setColor(x, black)
	}
}

// Min returns the smallest key and its value.
func (t *RBMap) Min() (key, value uint64, ok bool) {
	n := t.root()
	if n == 0 {
		return 0, 0, false
	}
	n = t.minimum(n)
	return t.key(n), t.h.ReadU64(n + rnVal), true
}

// Max returns the largest key and its value.
func (t *RBMap) Max() (key, value uint64, ok bool) {
	n := t.root()
	if n == 0 {
		return 0, 0, false
	}
	for t.right(n) != 0 {
		n = t.right(n)
	}
	return t.key(n), t.h.ReadU64(n + rnVal), true
}

// Floor returns the largest key <= k.
func (t *RBMap) Floor(k uint64) (key, value uint64, ok bool) {
	n := t.root()
	best := 0
	for n != 0 {
		nk := t.key(n)
		switch {
		case nk == k:
			return nk, t.h.ReadU64(n + rnVal), true
		case nk < k:
			best = n
			n = t.right(n)
		default:
			n = t.left(n)
		}
	}
	if best == 0 {
		return 0, 0, false
	}
	return t.key(best), t.h.ReadU64(best + rnVal), true
}

// Ceiling returns the smallest key >= k.
func (t *RBMap) Ceiling(k uint64) (key, value uint64, ok bool) {
	n := t.root()
	best := 0
	for n != 0 {
		nk := t.key(n)
		switch {
		case nk == k:
			return nk, t.h.ReadU64(n + rnVal), true
		case nk > k:
			best = n
			n = t.left(n)
		default:
			n = t.right(n)
		}
	}
	if best == 0 {
		return 0, 0, false
	}
	return t.key(best), t.h.ReadU64(best + rnVal), true
}

// Range visits pairs with lo <= key <= hi in ascending order; fn returning
// false stops the scan.
func (t *RBMap) Range(lo, hi uint64, fn func(k, v uint64) bool) {
	var walk func(n int) bool
	walk = func(n int) bool {
		if n == 0 {
			return true
		}
		k := t.key(n)
		if k > lo {
			if !walk(t.left(n)) {
				return false
			}
		}
		if k >= lo && k <= hi {
			if !fn(k, t.h.ReadU64(n+rnVal)) {
				return false
			}
		}
		if k < hi {
			return walk(t.right(n))
		}
		return true
	}
	walk(t.root())
}

// Scan implements KV: up to n pairs with key >= start in ascending key
// order, via the in-order walk of Range.
func (t *RBMap) Scan(start uint64, n int) []Pair {
	if n <= 0 {
		return nil
	}
	out := make([]Pair, 0, n)
	t.Range(start, ^uint64(0), func(k, v uint64) bool {
		out = append(out, Pair{Key: k, Value: v})
		return len(out) < n
	})
	if len(out) == 0 {
		return nil
	}
	return out
}

// ForEach visits pairs in ascending key order; fn returning false stops.
// It is Scan's walk, so it reads what a Scan of as many pairs reads.
func (t *RBMap) ForEach(fn func(k, v uint64) bool) { t.Range(0, ^uint64(0), fn) }

// CheckInvariants verifies the red-black properties, returning an error
// describing the first violation. Used by tests and available to callers as
// a consistency check after recovery.
func (t *RBMap) CheckInvariants() error {
	root := t.root()
	if root == 0 {
		return nil
	}
	if t.color(root) != black {
		return errors.New("rbtree: root is red")
	}
	count := 0
	var check func(n int, min, max uint64) (int, error)
	check = func(n int, min, max uint64) (int, error) {
		if n == 0 {
			return 1, nil
		}
		count++
		k := t.key(n)
		if k < min || k > max {
			return 0, fmt.Errorf("rbtree: key %d violates BST order", k)
		}
		if t.color(n) == red {
			if t.color(t.left(n)) == red || t.color(t.right(n)) == red {
				return 0, fmt.Errorf("rbtree: red node %d has a red child", n)
			}
		}
		if l := t.left(n); l != 0 && t.parent(l) != n {
			return 0, fmt.Errorf("rbtree: bad parent link at %d", l)
		}
		if r := t.right(n); r != 0 && t.parent(r) != n {
			return 0, fmt.Errorf("rbtree: bad parent link at %d", r)
		}
		var lmax, rmin uint64 = k, k
		if k > 0 {
			lmax = k - 1
		}
		if k < ^uint64(0) {
			rmin = k + 1
		}
		lh, err := check(t.left(n), min, lmax)
		if err != nil {
			return 0, err
		}
		rh, err := check(t.right(n), rmin, max)
		if err != nil {
			return 0, err
		}
		if lh != rh {
			return 0, fmt.Errorf("rbtree: black-height mismatch at %d (%d vs %d)", n, lh, rh)
		}
		if t.color(n) == black {
			lh++
		}
		return lh, nil
	}
	if _, err := check(root, 0, ^uint64(0)); err != nil {
		return err
	}
	if count != t.Len() {
		return fmt.Errorf("rbtree: size %d but %d reachable nodes", t.Len(), count)
	}
	return nil
}

var _ KV = (*RBMap)(nil)
