package pq

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// heapOps is the API surface shared by Min and the reference heap.
type heapOps interface {
	Len() int
	Contains(item int32) bool
	Key(item int32) float64
	Push(item int32, key float64)
	DecreaseKey(item int32, key float64)
	PushOrDecrease(item int32, key float64) bool
	Pop() (int32, float64)
	Reset(n int)
}

var (
	_ heapOps = (*Min)(nil)
	_ heapOps = (*refMin)(nil)
)

// tieKeys is the key alphabet of the differential tests: few distinct
// values, so most comparisons are ties and the tie order is what gets
// exercised.
var tieKeys = [...]float64{0, 1, 1, 2, 2, 2.5, 3, math.Inf(1)}

// maxIDs bounds the ID space replayOps grows to.
const maxIDs = 96

// replayOps decodes data as a sequence of heap operations, applies each to
// a Min and to the reference heap, and returns the first divergence: a
// different (item, key) pop, a different PushOrDecrease result, or a
// different Len/Contains/Key anywhere in the ID space. Each operation takes
// two bytes: the first selects the operation (low three bits) and the item
// (the rest), the second the key or the Reset size.
func replayOps(data []byte) error {
	n := 16
	if len(data) > 0 {
		n = 1 + int(data[0])%32
		data = data[1:]
	}
	got, want := New(n), newRef(n)
	pops := 0
	pop := func() error {
		gi, gk := got.Pop()
		wi, wk := want.Pop()
		pops++
		if gi != wi || gk != wk {
			return fmt.Errorf("pop %d: got (%d, %v), want (%d, %v)", pops, gi, gk, wi, wk)
		}
		return nil
	}
	for op := 0; len(data) >= 2; op++ {
		code, arg := data[0], data[1]
		data = data[2:]
		item := int32(code>>3) % int32(n)
		key := tieKeys[int(arg)%len(tieKeys)]
		switch code & 7 {
		case 0, 1, 2:
			if g, w := got.PushOrDecrease(item, key), want.PushOrDecrease(item, key); g != w {
				return fmt.Errorf("op %d: PushOrDecrease(%d, %v) = %v, want %v", op, item, key, g, w)
			}
		case 3:
			if want.Contains(item) {
				got.DecreaseKey(item, key)
				want.DecreaseKey(item, key)
			} else {
				got.Push(item, key)
				want.Push(item, key)
			}
		case 4, 5:
			if want.Len() > 0 {
				if err := pop(); err != nil {
					return err
				}
			}
		case 6:
			if grown := n + int(arg)%8; grown <= maxIDs {
				n = grown
			}
			got.Reset(n)
			want.Reset(n)
		case 7:
			for want.Len() > 0 {
				if err := pop(); err != nil {
					return err
				}
			}
		}
		if g, w := got.Len(), want.Len(); g != w {
			return fmt.Errorf("op %d: Len %d, want %d", op, g, w)
		}
		for it := int32(0); it < int32(n); it++ {
			gc, wc := got.Contains(it), want.Contains(it)
			if gc != wc {
				return fmt.Errorf("op %d: Contains(%d) = %v, want %v", op, it, gc, wc)
			}
			if wc && got.Key(it) != want.Key(it) {
				return fmt.Errorf("op %d: Key(%d) = %v, want %v", op, it, got.Key(it), want.Key(it))
			}
		}
	}
	for want.Len() > 0 {
		if err := pop(); err != nil {
			return err
		}
	}
	return nil
}

// TestMinMatchesReference runs random operation sequences with heavy key
// ties and interleaved Resets through both heaps.
func TestMinMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	trials := 3000
	if testing.Short() {
		trials = 500
	}
	for trial := 0; trial < trials; trial++ {
		data := make([]byte, 1+2*rng.Intn(400))
		rng.Read(data)
		if err := replayOps(data); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestDijkstraPopsMatchReference drives both heaps with the access pattern
// that matters most — Dijkstra over a random graph with small integer arc
// weights, where equal tentative distances are everywhere — and compares
// the full settle order.
func TestDijkstraPopsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 50 + rng.Intn(400)
		adj := make([][]int32, n)
		wgt := make([][]float64, n)
		for v := 0; v < n; v++ {
			for d := 1 + rng.Intn(4); d > 0; d-- {
				adj[v] = append(adj[v], int32(rng.Intn(n)))
				wgt[v] = append(wgt[v], float64(1+rng.Intn(3)))
			}
		}
		src := int32(rng.Intn(n))
		got := settleOrder(New(n), adj, wgt, src)
		want := settleOrder(newRef(n), adj, wgt, src)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d pops, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: pop %d = %d, want %d", trial, i, got[i], want[i])
			}
		}
	}
}

func settleOrder(h heapOps, adj [][]int32, wgt [][]float64, src int32) []int32 {
	dist := make([]float64, len(adj))
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	h.Push(src, 0)
	var order []int32
	for h.Len() > 0 {
		v, d := h.Pop()
		order = append(order, v)
		for i, u := range adj[v] {
			if nd := d + wgt[v][i]; nd < dist[u] {
				dist[u] = nd
				h.PushOrDecrease(u, nd)
			}
		}
	}
	return order
}

// FuzzMinMatchesReference is the differential test under the fuzzer; the
// committed corpus in testdata/fuzz seeds it and runs as a plain test.
func FuzzMinMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := replayOps(data); err != nil {
			t.Fatal(err)
		}
	})
}
