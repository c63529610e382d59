package precompute

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/netgen"
	"repro/internal/partition"
	"repro/internal/spath"
)

func setup(t *testing.T, nodes, edges, regions int, seed int64) (*graph.Graph, *Regions, *BorderData) {
	t.Helper()
	g, err := netgen.Generate(nodes, edges, seed)
	if err != nil {
		t.Fatal(err)
	}
	kd, err := partition.NewKDTree(g, regions)
	if err != nil {
		t.Fatal(err)
	}
	r := BuildRegions(g, kd)
	return g, r, Compute(g, r)
}

// TestMinMaxAgainstBruteForce recomputes the inter-region min/max distances
// pair by pair with independent Dijkstra runs.
func TestMinMaxAgainstBruteForce(t *testing.T) {
	g, r, bd := setup(t, 300, 340, 4, 1)
	for i := 0; i < r.N; i++ {
		for j := 0; j < r.N; j++ {
			if i == j {
				continue
			}
			mn, mx := math.Inf(1), 0.0
			for _, b := range r.Borders[i] {
				tree := spath.Dijkstra(g, b)
				for _, b2 := range r.Borders[j] {
					if b2 == b {
						continue
					}
					d := tree.Dist[b2]
					mn = math.Min(mn, d)
					mx = math.Max(mx, d)
				}
			}
			if math.Abs(bd.MinDist[i][j]-mn) > 1e-9 {
				t.Errorf("MinDist[%d][%d] = %v, want %v", i, j, bd.MinDist[i][j], mn)
			}
			if math.Abs(bd.MaxDist[i][j]-mx) > 1e-9 {
				t.Errorf("MaxDist[%d][%d] = %v, want %v", i, j, bd.MaxDist[i][j], mx)
			}
		}
	}
}

// TestUpperBoundProperty: for random queries, the EB upper bound
// A[Rs][Rt].max must dominate the border-to-border segment of the true
// shortest path, which is what pruning soundness rests on.
func TestUpperBoundProperty(t *testing.T) {
	g, r, bd := setup(t, 500, 560, 8, 2)
	for s := 0; s < g.NumNodes(); s += 37 {
		for d := 1; d < g.NumNodes(); d += 53 {
			rs := r.Assign[s]
			rt := r.Assign[d]
			if rs == rt {
				continue
			}
			ub := bd.MaxDist[rs][rt]
			// The path's first exit border of rs and last entry border of
			// rt must satisfy dist(b0, b2) <= UB.
			_, path, _ := spath.PointToPoint(g, graph.NodeID(s), graph.NodeID(d))
			var b0, b2 graph.NodeID = graph.Invalid, graph.Invalid
			for k := 0; k < len(path); k++ {
				if r.Assign[path[k]] == rs {
					b0 = path[k]
				} else {
					break
				}
			}
			for k := len(path) - 1; k >= 0; k-- {
				if r.Assign[path[k]] == rt {
					b2 = path[k]
				} else {
					break
				}
			}
			if b0 == graph.Invalid || b2 == graph.Invalid {
				continue
			}
			seg, _, _ := spath.PointToPoint(g, b0, b2)
			if seg > ub+1e-6 {
				t.Fatalf("query %d->%d: segment %v exceeds UB %v", s, d, seg, ub)
			}
		}
	}
}

// TestTraversalContainsShortestPathRegions: the NEED set of (Rs, Rt) must
// contain every region the true shortest path visits — Section 5's
// correctness guarantee.
func TestTraversalContainsShortestPathRegions(t *testing.T) {
	g, r, bd := setup(t, 500, 560, 8, 3)
	for s := 0; s < g.NumNodes(); s += 41 {
		for d := 1; d < g.NumNodes(); d += 59 {
			rs, rt := r.Assign[s], r.Assign[d]
			need := bd.Need(rs, rt, r.N)
			_, path, _ := spath.PointToPoint(g, graph.NodeID(s), graph.NodeID(d))
			for _, v := range path {
				if !need.Has(r.Assign[v]) {
					t.Fatalf("query %d->%d: path visits region %d missing from NEED(%d,%d)",
						s, d, r.Assign[v], rs, rt)
				}
			}
		}
	}
}

// TestCrossBorderCoversTransitSegments: nodes of a shortest path inside a
// region other than the terminals' must be classified cross-border
// (Section 4.1's segmentation guarantee).
func TestCrossBorderCoversTransitSegments(t *testing.T) {
	g, r, bd := setup(t, 500, 560, 8, 4)
	for s := 0; s < g.NumNodes(); s += 43 {
		for d := 1; d < g.NumNodes(); d += 61 {
			rs, rt := r.Assign[s], r.Assign[d]
			_, path, _ := spath.PointToPoint(g, graph.NodeID(s), graph.NodeID(d))
			for _, v := range path {
				rv := r.Assign[v]
				if rv == rs || rv == rt {
					continue
				}
				if !bd.CrossBorder[v] {
					t.Fatalf("query %d->%d: transit node %d (region %d) not cross-border", s, d, v, rv)
				}
			}
		}
	}
}

func TestRegionSetOps(t *testing.T) {
	s := NewRegionSet(130)
	s.Set(0)
	s.Set(64)
	s.Set(129)
	if !s.Has(0) || !s.Has(64) || !s.Has(129) || s.Has(1) {
		t.Fatal("set/has wrong")
	}
	if s.Count() != 3 {
		t.Fatalf("count %d", s.Count())
	}
	o := NewRegionSet(130)
	o.Set(5)
	s.Or(o)
	if !s.Has(5) || s.Count() != 4 {
		t.Fatal("or wrong")
	}
}

func TestSplitSegments(t *testing.T) {
	nodes := []graph.NodeID{1, 2, 3, 4}
	cross := []bool{false, true, false, true, false}
	ordered, nCross := SplitSegments(nodes, cross)
	if nCross != 2 {
		t.Fatalf("nCross %d", nCross)
	}
	want := []graph.NodeID{1, 3, 2, 4}
	for i := range want {
		if ordered[i] != want[i] {
			t.Fatalf("ordered %v, want %v", ordered, want)
		}
	}
}

func TestDiagonalSemantics(t *testing.T) {
	_, r, bd := setup(t, 300, 330, 4, 5)
	for i := 0; i < r.N; i++ {
		if bd.MinDist[i][i] != 0 {
			t.Errorf("MinDist[%d][%d] = %v, want 0", i, i, bd.MinDist[i][i])
		}
		if !bd.Traversal(i, i, r.N).Has(i) {
			t.Errorf("Traverse[%d][%d] missing own region", i, i)
		}
	}
}

func TestBorderCount(t *testing.T) {
	_, r, _ := setup(t, 200, 220, 4, 6)
	total := 0
	for _, bs := range r.Borders {
		total += len(bs)
	}
	if r.BorderCount() != total {
		t.Fatalf("BorderCount %d != %d", r.BorderCount(), total)
	}
	if total == 0 {
		t.Fatal("no border nodes on a connected partitioned network")
	}
}

// equalBorderData fails the test at the first field where a and b diverge.
func equalBorderData(t *testing.T, label string, n int, a, b *BorderData) {
	t.Helper()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if a.MinDist[i][j] != b.MinDist[i][j] || a.MaxDist[i][j] != b.MaxDist[i][j] {
				t.Fatalf("%s: dist cell (%d,%d): serial min/max %v/%v, parallel %v/%v",
					label, i, j, a.MinDist[i][j], a.MaxDist[i][j], b.MinDist[i][j], b.MaxDist[i][j])
			}
			for w := range a.Traverse[i*n+j] {
				if a.Traverse[i*n+j][w] != b.Traverse[i*n+j][w] {
					t.Fatalf("%s: traversal set (%d,%d) word %d differs", label, i, j, w)
				}
			}
		}
	}
	for v := range a.CrossBorder {
		if a.CrossBorder[v] != b.CrossBorder[v] {
			t.Fatalf("%s: CrossBorder[%d]: serial %v, parallel %v", label, v, a.CrossBorder[v], b.CrossBorder[v])
		}
	}
}

// TestParallelMatchesSerial pins ComputeWorkers' contract on all five
// harness networks (scaled down): every worker count produces the exact
// BorderData the serial path produces. CI additionally runs this package
// under -race with GOMAXPROCS > 1.
func TestParallelMatchesSerial(t *testing.T) {
	for _, p := range netgen.Presets {
		p := p.Scaled(0.01)
		g, err := p.Generate(2010)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		kd, err := partition.NewKDTree(g, 8)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		r := BuildRegions(g, kd)
		serial := ComputeWorkers(g, r, 1)
		for _, workers := range []int{2, 4, 0} {
			par := ComputeWorkers(g, r, workers)
			equalBorderData(t, p.Name, r.N, serial, par)
		}
	}
}

// TestComputeAllocsPerBorder pins that the border pre-computation reuses
// its Dijkstra state: with one worker, the bytes allocated per border node
// stay far below one tree's worth (distances, parents, pop order and heap
// positions are about 20 bytes per graph node). The per-worker accumulator
// and the result are allocated once and amortize over all border nodes.
func TestComputeAllocsPerBorder(t *testing.T) {
	p, err := netgen.PresetByName("germany")
	if err != nil {
		t.Fatal(err)
	}
	g, err := p.Scaled(0.05).Generate(2010)
	if err != nil {
		t.Fatal(err)
	}
	kd, err := partition.NewKDTree(g, 32)
	if err != nil {
		t.Fatal(err)
	}
	r := BuildRegions(g, kd)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ComputeWorkers(g, r, 1)
	runtime.ReadMemStats(&after)
	perBorder := float64(after.TotalAlloc-before.TotalAlloc) / float64(r.BorderCount())
	limit := 2 * float64(g.NumNodes())
	t.Logf("%d nodes, %d border nodes: %.0f B allocated per border node (limit %.0f)",
		g.NumNodes(), r.BorderCount(), perBorder, limit)
	if perBorder > limit {
		t.Fatalf("%.0f B allocated per border node, want <= %.0f (2 B per graph node): per-tree state is being reallocated",
			perBorder, limit)
	}
}

// BenchmarkPrecomputeParallel measures the border-pair pre-computation
// serial versus fanned across all cores (`-benchmem` shows the per-worker
// accumulator overhead).
func BenchmarkPrecomputeParallel(b *testing.B) {
	g, err := netgen.PresetByName("germany")
	if err != nil {
		b.Fatal(err)
	}
	gg, err := g.Scaled(0.05).Generate(2010)
	if err != nil {
		b.Fatal(err)
	}
	kd, err := partition.NewKDTree(gg, 32)
	if err != nil {
		b.Fatal(err)
	}
	r := BuildRegions(gg, kd)
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ComputeWorkers(gg, r, 1)
		}
	})
	b.Run("gomaxprocs", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ComputeWorkers(gg, r, 0)
		}
	})
}
