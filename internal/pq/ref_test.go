package pq

// refMin is the original swap-based indexed heap, kept verbatim as the
// reference the production heap must match pop for pop (see the package
// doc's pop-order contract and TestMinMatchesReference).
type refMin struct {
	items []int32
	keys  []float64
	pos   []int32
}

func newRef(n int) *refMin {
	pos := make([]int32, n)
	for i := range pos {
		pos[i] = -1
	}
	return &refMin{pos: pos}
}

func (h *refMin) Len() int                 { return len(h.items) }
func (h *refMin) Contains(item int32) bool { return h.pos[item] >= 0 }
func (h *refMin) Key(item int32) float64   { return h.keys[h.pos[item]] }

func (h *refMin) Push(item int32, key float64) {
	if h.pos[item] >= 0 {
		panic("pq: Push of item already in heap")
	}
	h.items = append(h.items, item)
	h.keys = append(h.keys, key)
	h.pos[item] = int32(len(h.items) - 1)
	h.up(len(h.items) - 1)
}

func (h *refMin) DecreaseKey(item int32, key float64) {
	i := h.pos[item]
	if i < 0 {
		panic("pq: DecreaseKey of item not in heap")
	}
	if key >= h.keys[i] {
		return
	}
	h.keys[i] = key
	h.up(int(i))
}

func (h *refMin) PushOrDecrease(item int32, key float64) bool {
	if i := h.pos[item]; i >= 0 {
		if key >= h.keys[i] {
			return false
		}
		h.keys[i] = key
		h.up(int(i))
		return true
	}
	h.Push(item, key)
	return true
}

func (h *refMin) Pop() (int32, float64) {
	if len(h.items) == 0 {
		panic("pq: Pop of empty heap")
	}
	item, key := h.items[0], h.keys[0]
	last := len(h.items) - 1
	h.swap(0, last)
	h.items = h.items[:last]
	h.keys = h.keys[:last]
	h.pos[item] = -1
	if last > 0 {
		h.down(0)
	}
	return item, key
}

func (h *refMin) Reset(n int) {
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

func (h *refMin) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h.keys[parent] <= h.keys[i] {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *refMin) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.keys[l] < h.keys[smallest] {
			smallest = l
		}
		if r < n && h.keys[r] < h.keys[smallest] {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}

func (h *refMin) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.keys[i], h.keys[j] = h.keys[j], h.keys[i]
	h.pos[h.items[i]] = int32(i)
	h.pos[h.items[j]] = int32(j)
}
