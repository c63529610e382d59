package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/broadcast"
	"repro/internal/graph"
	"repro/internal/netgen"
	"repro/internal/partition"
	"repro/internal/precompute"
)

// TestGoldenBuildOutput pins the exact bytes the server build puts on the
// air. Shortest-path ties are broken by the heap's pop order, and that
// order decides the border shortest-path trees, which reach the encoded
// output as NR next-region pointers, Traverse sets and the cross-border
// classification. Any change to tie-breaking anywhere in the build — the
// heap, the Dijkstra loop, the tree passes, the cycle assembly — changes
// one of these digests.
//
// The digests cover the border data in its AIRB encoding (with Elapsed
// zeroed: wall time is not part of the output) and the EB and NR cycles in
// their AIRC encoding, on two preset networks with netgen seed 42 and the
// default 32 regions. Real-valued arc weights make equal distances rare,
// so a third case quantizes germany's weights to whole multiples of the
// mean arc weight: there, ties are everywhere and the tie order itself is
// pinned. A deliberate change to the broadcast format must update the
// digests in the same commit.
func TestGoldenBuildOutput(t *testing.T) {
	cases := []struct {
		name           string
		preset         string
		scale          float64
		quantize       bool
		border, eb, nr string
	}{
		{"germany", "germany", 0.1, false,
			"b3991359ec51496c12e5eba52c63da9c836cdc9c19ffabcc336d8d26338fd423",
			"b5eb549b6934720c11dbf2c16bb18f8f804a5d65c8845ba0688c0cd95342c9a3",
			"2563fa573a2fbce30c29218ba990ed9b1cd76926e60bfad4f39a124d2e51c14a"},
		{"milan", "milan", 0.25, false,
			"05bce60ff993289ce49015a3a04fbcd4d99fdcc1de467fc221b0b76942753172",
			"69b25e36cde8dc87fb7b4afbbe9b6204de950797660d05154b3f93445afcd1a7",
			"283bc9177f6da8fe1c69b9db2d76fb743e636ca8021bbc930342948742e68e50"},
		{"germany-ties", "germany", 0.1, true,
			"4d524b066a027b0084d215a5aadecd095e31e83c0c5c26540ce80f6af470620c",
			"4c465aa3b164f9fa24ffbaccc88bda2a0c38ed04a857c9b2d5e0fdab496b0255",
			"360862d1963a7f4f33305607c61da03753c2f6902ba03015e4e074d3176de1cd"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, err := netgen.PresetByName(c.preset)
			if err != nil {
				t.Fatal(err)
			}
			g, err := p.Scaled(c.scale).Generate(42)
			if err != nil {
				t.Fatal(err)
			}
			if c.quantize {
				g = quantizeWeights(g)
			}
			opts := DefaultOptions()
			kd, err := partition.NewKDTree(g, opts.Regions)
			if err != nil {
				t.Fatal(err)
			}
			regions := precompute.BuildRegions(g, kd)
			border := precompute.Compute(g, regions)

			timeless := *border
			timeless.Elapsed = 0
			var buf bytes.Buffer
			if err := precompute.EncodeBorder(&buf, &timeless, regions.N); err != nil {
				t.Fatal(err)
			}
			checkDigest(t, "border (AIRB)", buf.Bytes(), c.border)

			eb := NewEBShared(g, kd, regions, border, opts)
			checkDigest(t, "EB cycle (AIRC)", cycleBytes(t, eb.Cycle()), c.eb)
			nr, err := NewNRShared(g, kd, regions, border, opts)
			if err != nil {
				t.Fatal(err)
			}
			checkDigest(t, "NR cycle (AIRC)", cycleBytes(t, nr.Cycle()), c.nr)
		})
	}
}

// quantizeWeights returns g with every arc weight rounded to a whole
// multiple (at least one) of the mean arc weight.
func quantizeWeights(g *graph.Graph) *graph.Graph {
	total := 0.0
	for v := 0; v < g.NumNodes(); v++ {
		_, wgt := g.Out(graph.NodeID(v))
		for _, w := range wgt {
			total += w
		}
	}
	mean := total / float64(g.NumArcs())
	b := graph.NewBuilder(g.NumNodes(), g.NumArcs())
	for _, nd := range g.Nodes() {
		b.AddNode(nd.X, nd.Y)
	}
	for v := 0; v < g.NumNodes(); v++ {
		dst, wgt := g.Out(graph.NodeID(v))
		for i, u := range dst {
			b.AddArc(graph.NodeID(v), u, math.Max(1, math.Round(wgt[i]/mean)))
		}
	}
	return b.MustBuild()
}

func cycleBytes(t *testing.T, c *broadcast.Cycle) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := broadcast.EncodeCycle(&buf, c); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func checkDigest(t *testing.T, what string, data []byte, want string) {
	t.Helper()
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("%s: sha256 %s over %d bytes, want %s", what, got, len(data), want)
	}
}
