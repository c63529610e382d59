package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"testing"

	"repro/internal/broadcast"
	"repro/internal/multichannel"
	"repro/internal/station"
	"repro/internal/wire"
)

// tiny shrinks a workload to a smoke-test size.
func tiny(workload string, trace bool, t *testing.T) runConfig {
	return runConfig{
		workload: workload, seed: 3, seconds: 0.2, trace: trace, root: t.TempDir(),
		scale: 0.03, queries: 40, setupReps: 1, batchEvery: 10,
	}
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// declaredMetrics reads the metric lists BENCHMARK.json promises.
func declaredMetrics(t *testing.T) (endToEnd, perLayer map[string]string) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	toMap := func(ds []declared) map[string]string {
		m := map[string]string{}
		for _, d := range ds {
			m[d.Name] = d.Unit
		}
		return m
	}
	return toMap(b.EndToEnd), toMap(b.PerLayer)
}

// ranOn names, per workload, per-layer metrics whose layer runs there and
// must therefore read above zero in a traced run.
var ranOn = map[string][]string{
	"offline-nr-k4": {"multichannel.rx.at_ns", "multichannel.rx.hops_per_query", "airidx.nrrows_reset_ns", "multichannel.plan_ms"},
	"live-nr-k4":    {"multichannel.rx.at_ns", "multichannel.rx.hops_per_query", "station.subscribe_us", "multichannel.plan_ms"},
	"churn-eb-k1":   {"station.sub.at_ns", "station.subscribe_us", "update.apply_ms", "station.swap_ms", "update_ms_p50"},
	"wire-eb-k1":    {"wire.receiver.at_ns", "wire.dial_ms"},
}

// everywhere names per-layer metrics that must read above zero on every
// workload.
var everywhere = []string{
	"core.client.self_us_per_query", "broadcast.tuner.pkts_per_query", "packet.records_ns_per_pkt",
	"airidx.accum_ns_per_pkt", "netdata.collector.process_ns_per_pkt", "netdata.collector.nodes_per_query",
	"spath.dijkstra_us_per_query", "spath.settled_per_query", "netgen.generate_s", "partition.kdtree_s",
	"precompute.border_s", "core.cycle_assemble_s", "broadcast.encode_cycle_ms", "servercache.warm_load_s",
	"runtime.allocs_per_query", "proc.cpu_util", "trace.qps_untraced", "trace.qps_traced",
}

// TestSmokeWorkloads runs every workload at a tiny scale, untraced and
// traced, and checks that the answers verify, that the reported metrics
// are exactly the declared names with their units, and that every layer
// on a workload's path was measured there.
func TestSmokeWorkloads(t *testing.T) {
	endToEnd, perLayer := declaredMetrics(t)
	for _, sp := range specs {
		for _, trace := range []bool{false, true} {
			res, err := run(tiny(sp.name, trace, t), io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", sp.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", sp.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			got := map[string]string{}
			for name, m := range res.Metrics {
				got[name] = m.Unit
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%v: metrics %v, declared %v", sp.name, trace, got, want)
			}
			mustRun := append(append([]string(nil), everywhere...), ranOn[sp.name]...)
			if !trace {
				mustRun = nil
				for name := range endToEnd {
					mustRun = append(mustRun, name)
				}
			}
			for _, name := range mustRun {
				if v := res.Metrics[name].Value; !(v > 0) {
					t.Errorf("%s trace=%v: %s = %v, want > 0", sp.name, trace, name, v)
				}
			}
		}
	}
}

// TestWrappedFeedsIdentical answers the same queries through Session.Query
// and through the traced path, whose tuner sits on timing wrappers, on an
// offline single channel and on an offline 4-channel air: every Result
// (distance, path, tuning, latency, memory) must be identical.
func TestWrappedFeedsIdentical(t *testing.T) {
	for _, k := range []int{1, 4} {
		sp, _ := specByName("offline-nr-k4")
		sp.scale, sp.channels, sp.queries, sp.sources = 0.03, k, 60, 10
		sys, err := sp.setUp(5)
		if err != nil {
			t.Fatal(err)
		}
		b := &bench{sp: sp, seed: 5, sys: sys}
		qs, sources := makeQueries(sys.g, sp.queries, sp.sources, 5)
		b.qs = qs
		ref, err := references(sys.g, qs, sources)
		if err != nil {
			t.Fatal(err)
		}
		b.vs = &versions{refs: [][]float64{ref}}
		s, err := sys.d.Session(context.Background(), b.sessionOptions(0))
		if err != nil {
			t.Fatal(err)
		}
		var all, first layerStats
		tc, err := newTracedClient(b, 0, &all, &first, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range qs {
			want, err1 := sessionAsker{s}.ask(context.Background(), q)
			got, err2 := tc.ask(context.Background(), q)
			tc.after()
			if err1 != nil || err2 != nil {
				t.Fatalf("K=%d query %d: %v / %v", k, q.idx, err1, err2)
			}
			want.Metrics.CPU, got.Metrics.CPU = 0, 0
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("K=%d query %d: session %+v, traced %+v", k, q.idx, want, got)
			}
		}
		if all[cReplayWrong] != 0 || all[cQueries] != int64(len(qs)) {
			t.Errorf("K=%d: %d of %d replays disagree", k, all[cReplayWrong], all[cQueries])
		}
		sys.close()
	}
}

// TestWrapperKeepsOptionalInterfaces checks the wrapper of every concrete
// feed type implements exactly the optional interfaces the feed does.
func TestWrapperKeepsOptionalInterfaces(t *testing.T) {
	sp, _ := specByName("offline-nr-k4")
	sp.scale = 0.03
	sys, err := sp.setUp(1)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.close()
	cycle := sys.d.Cycle()
	ch, err := broadcast.NewChannel(cycle, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := multichannel.Build(cycle, 4, multichannel.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	air, err := multichannel.NewAir(plan, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	rx, err := air.Rx(0, multichannel.RxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := station.New(cycle, station.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := st.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	sub, err := st.Subscribe(0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	wsp, _ := specByName("wire-eb-k1")
	wsp.scale = 0.03
	wsys, err := wsp.setUp(1)
	if err != nil {
		t.Fatal(err)
	}
	defer wsys.close()
	wrx, err := wire.Dial(wsys.bc.Addr().String(), wire.ReceiverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer wrx.Close()
	for _, f := range []broadcast.Feed{ch, rx, sub, wrx} {
		w, err := wrapFeed(f, &recorder{})
		if err != nil {
			t.Fatal(err)
		}
		if optionalSet(w) != optionalSet(f) {
			t.Errorf("%T: wrapper set %04b, feed set %04b", f, optionalSet(w), optionalSet(f))
		}
	}
}

// TestChurnVerifierRejectsWrongDistance pins the churn acceptance rule: a
// distance passes only if it is the reference of a version that was on the
// air while the query ran.
func TestChurnVerifierRejectsWrongDistance(t *testing.T) {
	vs := &versions{refs: [][]float64{{100, 200}, {110, 210}, {120, 220}}}
	cases := []struct {
		i      int
		dist   float64
		lo, hi uint32
		want   bool
	}{
		{0, 100, 0, 0, true},
		{0, 110, 0, 2, true},
		{0, 110, 2, 2, false}, // version 1 was no longer on the air
		{0, 120, 0, 1, false}, // version 2 was not on the air yet
		{0, 115, 0, 2, false}, // no version has this distance
		{1, 200.05, 0, 0, true},
		{1, 201, 0, 0, false},
	}
	for _, c := range cases {
		if got := vs.accept(c.i, c.dist, c.lo, c.hi); got != c.want {
			t.Errorf("accept(%d, %v, [%d,%d]) = %v, want %v", c.i, c.dist, c.lo, c.hi, got, c.want)
		}
	}
}

// TestQuietWindows checks that the windowed medians keep the half of the
// windows with the least host steal, ties included.
func TestQuietWindows(t *testing.T) {
	cases := []struct {
		steal []float64
		want  []int
	}{
		{[]float64{0, 0.1, 0, 0.2, 0.05}, []int{0, 2, 4}},
		{[]float64{0.3, 0, 0, 0, 0.1, 0.2}, []int{1, 2, 3}},
		{[]float64{0, 0, 0, 0.4}, []int{0, 1, 2}},
	}
	for _, c := range cases {
		ws := make([]window, len(c.steal))
		for i, s := range c.steal {
			ws[i].steal = s
		}
		if got := quiet(ws); !reflect.DeepEqual(got, c.want) {
			t.Errorf("quiet(%v) = %v, want %v", c.steal, got, c.want)
		}
	}
}
