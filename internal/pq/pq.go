// Package pq provides an indexed binary min-heap keyed by float64.
//
// Items are small non-negative integers (node IDs); the heap supports
// decrease-key in O(log n), which Dijkstra and A* rely on. A position index
// makes Contains and DecreaseKey O(1) lookups.
//
// # Pop-order contract
//
// For any sequence of operations over non-NaN keys, the heap pops exactly
// the (item, key) sequence of the textbook swap-based binary heap it
// replaced, ties included: sift-up stops at a parent whose key is <= the
// moving key, the right child is preferred only when strictly smaller than
// the left, and sift-down stops at a child that is not strictly smaller.
// The contract exists because tie order is not an implementation detail
// here: equal tentative distances are common on road networks, the order
// they pop in decides which shortest-path tree Dijkstra builds, and the
// border pre-computation's trees reach the encoded broadcast bytes (NR
// next-region pointers, traversal sets, the cross-border classification).
// A faster heap with a different tie order would silently change what goes
// on the air. The differential tests pin the contract against the original
// heap, kept as a test-only reference.
package pq

// Min is an indexed min-heap. The zero value is not usable; call New.
//
// Keys and items live in parallel slices in heap order. Sifts move a hole
// instead of swapping entries, so each level costs one key/item move and
// one position update rather than a full swap.
type Min struct {
	items []int32   // heap order
	keys  []float64 // parallel to items
	pos   []int32   // pos[item] = index in items, or -1
}

// New returns a heap able to hold items in [0, n).
func New(n int) *Min {
	pos := make([]int32, n)
	for i := range pos {
		pos[i] = -1
	}
	return &Min{pos: pos}
}

// Len returns the number of items currently in the heap.
func (h *Min) Len() int { return len(h.items) }

// Contains reports whether item is in the heap.
func (h *Min) Contains(item int32) bool { return h.pos[item] >= 0 }

// Key returns the current key of item; item must be contained.
func (h *Min) Key(item int32) float64 { return h.keys[h.pos[item]] }

// Push inserts item with the given key. It panics if the item is already
// contained (use DecreaseKey or PushOrDecrease instead).
func (h *Min) Push(item int32, key float64) {
	if h.pos[item] >= 0 {
		panic("pq: Push of item already in heap")
	}
	h.items = append(h.items, item)
	h.keys = append(h.keys, key)
	h.up(len(h.items)-1, item, key)
}

// DecreaseKey lowers the key of a contained item. It panics if the item is
// absent; keys may only decrease (a larger key is ignored).
func (h *Min) DecreaseKey(item int32, key float64) {
	i := h.pos[item]
	if i < 0 {
		panic("pq: DecreaseKey of item not in heap")
	}
	if key >= h.keys[i] {
		return
	}
	h.up(int(i), item, key)
}

// PushOrDecrease inserts the item or lowers its key, whichever applies.
// It reports whether the heap changed.
func (h *Min) PushOrDecrease(item int32, key float64) bool {
	if i := h.pos[item]; i >= 0 {
		if key >= h.keys[i] {
			return false
		}
		h.up(int(i), item, key)
		return true
	}
	h.Push(item, key)
	return true
}

// Pop removes and returns the minimum item and its key. It panics on an
// empty heap.
func (h *Min) Pop() (int32, float64) {
	if len(h.items) == 0 {
		panic("pq: Pop of empty heap")
	}
	item, key := h.items[0], h.keys[0]
	last := len(h.items) - 1
	lastItem, lastKey := h.items[last], h.keys[last]
	h.items = h.items[:last]
	h.keys = h.keys[:last]
	h.pos[item] = -1
	if last > 0 {
		h.down(lastItem, lastKey)
	}
	return item, key
}

// Reset empties the heap and grows its ID space to hold items in [0, n) if
// needed, retaining capacity. Cheaper than New when the same heap is reused
// across many searches on the same graph.
func (h *Min) Reset(n int) {
	for _, it := range h.items {
		h.pos[it] = -1
	}
	h.items = h.items[:0]
	h.keys = h.keys[:0]
	if n > len(h.pos) {
		grown := make([]int32, n)
		copy(grown, h.pos)
		for i := len(h.pos); i < n; i++ {
			grown[i] = -1
		}
		h.pos = grown
	}
}

// up places (item, key) at hole i or above it: parents with a strictly
// larger key move down into the hole until one is <= key.
func (h *Min) up(i int, item int32, key float64) {
	items, keys, pos := h.items, h.keys, h.pos
	for i > 0 {
		parent := (i - 1) / 2
		pk := keys[parent]
		if pk <= key {
			break
		}
		pi := items[parent]
		keys[i], items[i] = pk, pi
		pos[pi] = int32(i)
		i = parent
	}
	keys[i], items[i] = key, item
	pos[item] = int32(i)
}

// down places (item, key) at the root hole or below it: the smaller child
// (the right one only when strictly smaller) moves up into the hole while
// it is strictly smaller than key.
func (h *Min) down(item int32, key float64) {
	items, keys, pos := h.items, h.keys, h.pos
	n := len(keys)
	i := 0
	for {
		c := 2*i + 1
		if c+1 >= n {
			// At most one child: the last level, handled below.
			if c < n && keys[c] < key {
				ci := items[c]
				keys[i], items[i] = keys[c], ci
				pos[ci] = int32(i)
				i = c
			}
			break
		}
		c += b2i(keys[c+1] < keys[c])
		ck := keys[c]
		if !(ck < key) {
			break
		}
		ci := items[c]
		keys[i], items[i] = ck, ci
		pos[ci] = int32(i)
		i = c
	}
	keys[i], items[i] = key, item
	pos[item] = int32(i)
}

// b2i converts a comparison to 0 or 1; the compiler lowers it to a SETcc,
// keeping the child choice free of an unpredictable branch.
func b2i(b bool) int {
	var x int
	if b {
		x = 1
	}
	return x
}
