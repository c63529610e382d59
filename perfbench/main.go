// Command perfbench is the repository's benchmark: it sets up one named
// workload through the deploy package, drives it closed loop through
// Session.Query, verifies every answer against a Dijkstra reference, and
// prints the end-to-end metrics (or, with --trace 1, the per-layer ones)
// as the last line of standard output. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is one invocation.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // the source tree; scratch files go under root/.bench_build
	// Test overrides (zero keeps the workload's own value).
	scale      float64
	queries    int
	setupReps  int
	batchEvery int
}

func main() {
	var cfg runConfig
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name")
	flag.Int64Var(&cfg.seed, "seed", 1, fmt.Sprintf("workload seed (%d is held out for confirming claims)", confirmSeed))
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.StringVar(&cfg.root, "root", ".", "root of the source tree")
	flag.Parse()
	cfg.trace = trace != 0
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one benchmark run, writing a human-readable report to out.
func run(cfg runConfig, out io.Writer) (result, error) {
	sp, err := specByName(cfg.workload)
	if err != nil {
		return result{}, err
	}
	if cfg.scale > 0 {
		sp.scale = cfg.scale
	}
	if cfg.queries > 0 {
		sp.queries = cfg.queries
		sp.sources = min(sp.sources, cfg.queries)
	}
	if cfg.batchEvery > 0 {
		sp.batchEvery = cfg.batchEvery
	}
	reps := cfg.setupReps
	if reps <= 0 {
		reps = 3
		if cfg.trace {
			reps = 1 // the traced run reports the set-up split instead
		}
	}
	env := stampEnvironment(cfg.root)
	envLine, _ := json.Marshal(env)
	fmt.Fprintf(out, "perfbench: workload=%s seed=%d seconds=%g trace=%v env=%s\n", sp.name, cfg.seed, cfg.seconds, cfg.trace, envLine)

	// Set-up: generate + cold Deploy + Start, repeated; the last stays up.
	var setups []float64
	var sys *system
	for r := 0; r < reps; r++ {
		if sys != nil {
			sys.close()
			sys = nil
			runtime.GC()
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		sys, err = sp.setUp(cfg.seed)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer sys.close()

	// Inputs and references, outside every timed span.
	b := &bench{sp: sp, seed: cfg.seed, sys: sys}
	qs, sources := makeQueries(sys.g, sp.queries, sp.sources, cfg.seed)
	b.qs = qs
	if sp.churn {
		b.vs, err = makeVersions(sp, sys.g, qs, sources, cfg.seed)
	} else {
		var ref []float64
		ref, err = references(sys.g, qs, sources)
		b.vs = &versions{refs: [][]float64{ref}}
	}
	if err != nil {
		return result{}, fmt.Errorf("references: %w", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ws writerStats
	stopWriter := func() {}
	if sp.churn {
		b.due = make(chan struct{}, sp.maxVersions())
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.writer(stop, &ws)
		}()
		var once sync.Once
		stopWriter = func() { once.Do(func() { close(stop); wg.Wait() }) }
	}
	defer stopWriter()

	phaseSeconds := cfg.seconds
	if cfg.trace {
		phaseSeconds /= 2
	}
	askers := make([]asker, sp.sessions)
	for k := range askers {
		s, err := sys.d.Session(ctx, b.sessionOptions(k))
		if err != nil {
			return result{}, err
		}
		askers[k] = sessionAsker{s}
	}
	runtime.GC()
	plain := b.runPhase(ctx, phaseSeconds, askers)
	e := summarize(plain)
	rss := e.rssMiB
	if rss == 0 {
		rss = statusMiB("VmHWM")
	}

	res := result{Correct: e.wrong == 0, Attempted: e.attempted, Failed: e.failed, Metrics: map[string]metric{}}
	report(out, "untraced", e)

	if !cfg.trace {
		stopWriter()
		if ws.err != nil {
			return result{}, fmt.Errorf("churn writer: %w", ws.err)
		}
		put := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }
		put("setup_s", "s", median(setups))
		put("qps", "1/s", e.qps)
		put("query_ms_p50", "ms", e.p50)
		put("query_ms_p90", "ms", e.p90)
		put("cpu_ms_per_query", "ms", e.cpuMsPerQuery)
		put("tuning_pkts_mean", "packets", e.tuningMean)
		put("latency_pkts_mean", "packets", e.latencyMean)
		put("client_mem_kb_mean", "KiB", e.memKBMean)
		put("rss_peak_mb", "MiB", rss)
		fmt.Fprintf(out, "perfbench: setup_s runs %v; failed_frac %.4g (%d of %d)\n", setups, frac(e.failed, e.attempted), e.failed, e.attempted)
		if len(ws.updateMs) > 0 {
			fmt.Fprintf(out, "perfbench: %d weight batches, update_ms_p50 %.4g\n", len(ws.updateMs), median(append([]float64(nil), ws.updateMs...)))
		}
		return res, nil
	}

	// Traced phase: the same devices on the traced path.
	var all, first layerStats
	spans := &spanLog{base: time.Now()}
	// Each device keeps its own stats, merged afterwards; the span log is
	// single-writer, so it records device 0.
	perAll := make([]layerStats, sp.sessions)
	perFirst := make([]layerStats, sp.sessions)
	for k := range askers {
		sl := spans
		if k > 0 {
			sl = nil
		}
		tc, err := newTracedClient(b, k, &perAll[k], &perFirst[k], sl)
		if err != nil {
			return result{}, err
		}
		askers[k] = tc
	}
	runtime.GC()
	traced := b.runPhase(ctx, phaseSeconds, askers)
	for k := range perAll {
		all.add(&perAll[k])
		first.add(&perFirst[k])
	}
	te := summarize(traced)
	qpsPlain, qpsTraced := medianRate(plain), medianRate(traced)
	report(out, "traced", te)
	stopWriter()
	if ws.err != nil {
		return result{}, fmt.Errorf("churn writer: %w", ws.err)
	}
	res.Attempted += te.attempted
	res.Failed += te.failed
	res.Correct = res.Correct && te.wrong == 0 && all[cReplayWrong] == 0
	if all[cReplayWrong] > 0 {
		fmt.Fprintf(out, "perfbench: %d replayed searches disagree with the reference\n", all[cReplayWrong])
	}
	if !sp.live && !sp.wire {
		if err := samePasses(plain, traced); err != nil {
			fmt.Fprintf(out, "perfbench: traced path differs from Session.Query: %v\n", err)
			res.Correct = false
		}
	}

	scratch := filepath.Join(cfg.root, ".bench_build", "perfbench")
	split, err := measureSplit(sp, cfg.seed, sys.d.Server().Cycle(), scratch)
	if err != nil {
		return result{}, fmt.Errorf("set-up split: %w", err)
	}
	spanPath := filepath.Join(scratch, fmt.Sprintf("spans-%s-%d.jsonl", sp.name, cfg.seed))
	if err := os.MkdirAll(scratch, 0o755); err == nil {
		if err := spans.write(spanPath); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		} else {
			fmt.Fprintf(out, "perfbench: %d spans written to %s\n", len(spans.spans), spanPath)
		}
	}
	res.Metrics = layerMetrics(sp, all, first, split, plain, e, qpsPlain, qpsTraced, &ws, res)
	printSum(out, res.Metrics)
	return res, nil
}

// medianRate is the closed-loop rate a phase's median query time sustains:
// the sum over devices of 1 / median query wall time. Replays between
// traced queries are outside the query times, so traced and untraced rates
// differ by the timing wrappers alone; a device stalled for seconds on a
// silent socket moves it no more than one slow query.
func medianRate(ph phase) float64 {
	rate := 0.0
	for _, outs := range ph.sessions {
		ms := make([]float64, 0, len(outs))
		for _, o := range outs {
			ms = append(ms, o.ms)
		}
		if m := median(ms); m > 0 {
			rate += 1000 / m
		}
	}
	return rate
}

// samePasses checks that the first pass of every device answered the same
// queries with the same distance, tuning, latency and memory on both
// phases: the traced path is the Session path, only timed.
func samePasses(a, b phase) error {
	for k := range a.sessions {
		var x, y []outcome
		for _, o := range a.sessions[k] {
			if o.firstPass {
				x = append(x, o)
			}
		}
		for _, o := range b.sessions[k] {
			if o.firstPass {
				y = append(y, o)
			}
		}
		if len(x) != len(y) {
			return fmt.Errorf("device %d: %d vs %d first-pass queries", k, len(x), len(y))
		}
		for i := range x {
			p, q := x[i], y[i]
			if p.idx != q.idx || (p.err == nil) != (q.err == nil) || p.dist != q.dist || p.m.Metrics.TuningPackets != q.m.Metrics.TuningPackets ||
				p.m.Metrics.LatencyPackets != q.m.Metrics.LatencyPackets || p.m.Metrics.PeakMemBytes != q.m.Metrics.PeakMemBytes {
				return fmt.Errorf("device %d query %d (#%d): dist %v/%v tuning %d/%d latency %d/%d mem %d/%d",
					k, i, p.idx, p.dist, q.dist, p.m.Metrics.TuningPackets, q.m.Metrics.TuningPackets,
					p.m.Metrics.LatencyPackets, q.m.Metrics.LatencyPackets, p.m.Metrics.PeakMemBytes, q.m.Metrics.PeakMemBytes)
			}
		}
	}
	return nil
}

func frac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// per divides, reporting 0 when the layer never ran.
func per(num, den int64, scale float64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den) / scale
}

// layerMetrics assembles the traced run's per-layer metrics.
func layerMetrics(sp spec, all, first layerStats, split setupSplit, plain phase, e endToEnd, qpsPlain, qpsTraced float64, ws *writerStats, res result) map[string]metric {
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	q := all[cQueries]
	fq := first[cQueries]
	self := per(all[cWallNs]-all[cAtNs]-all[cAttachNs], q, 1e3)
	replaySum := per(all[cAccNs]+all[cResetNs]+all[cProcNs]+all[cDijNs], q, 1e3)
	put("core.client.self_us_per_query", "us", self)
	put("core.client.replay_sum_us_per_query", "us", replaySum)
	unaccounted := 0.0
	if self > 0 {
		unaccounted = 1 - replaySum/self
	}
	put("core.client.unaccounted_frac", "ratio", unaccounted)

	atNs := per(all[cAtNs], all[cAtCalls], 1)
	var rxAt, subAt, wireAt float64
	switch {
	case sp.wire:
		wireAt = atNs
	case sp.channels > 1:
		rxAt = atNs
	case sp.live:
		subAt = atNs
	}
	put("multichannel.rx.at_ns", "ns", rxAt)
	put("station.sub.at_ns", "ns", subAt)
	put("wire.receiver.at_ns", "ns", wireAt)

	put("broadcast.tuner.pkts_per_query", "count", per(first[cTuning], fq, 1))
	put("broadcast.tuner.lost_per_query", "count", per(first[cLost], fq, 1))
	put("multichannel.rx.hops_per_query", "count", per(first[cHops], fq, 1))
	put("multichannel.rx.missed_per_query", "count", per(first[cRxMissed], fq, 1))
	put("station.sub.missed_per_query", "count", per(first[cSubMissed], fq, 1))

	put("packet.records_ns_per_pkt", "ns", per(all[cRecNs], all[cRecPkts], 1))
	put("airidx.accum_ns_per_pkt", "ns", per(all[cAccNs], all[cAccPkts], 1))
	put("airidx.nrrows_reset_ns", "ns", per(all[cResetNs], all[cResets], 1))
	put("netdata.collector.process_ns_per_pkt", "ns", per(all[cProcNs], all[cProcPkts], 1))
	put("netdata.collector.nodes_per_query", "count", per(first[cNodes], fq, 1))
	put("spath.dijkstra_us_per_query", "us", per(all[cDijNs], q, 1e3))
	put("spath.settled_per_query", "count", per(first[cSettled], fq, 1))

	put("station.subscribe_us", "us", per(all[cSubscribeNs], all[cSubscribes], 1e3))
	put("wire.dial_ms", "ms", per(all[cDialNs], all[cDials], 1e6))
	put("update.apply_ms", "ms", median(append([]float64(nil), ws.applyMs...)))
	put("station.swap_ms", "ms", median(append([]float64(nil), ws.swapMs...)))
	put("update_ms_p50", "ms", median(append([]float64(nil), ws.updateMs...)))
	put("deploy.session.reentries_per_query", "count", per(all[cReentries], q, 1))
	put("wire.corrupted_per_query", "count", per(all[cCorrupted], q, 1))
	put("wire.lost_per_query", "count", per(all[cWireLost], q, 1))
	put("wire.redials", "count", float64(all[cRedials]))

	put("netgen.generate_s", "s", split.generateS)
	put("partition.kdtree_s", "s", split.kdtreeS)
	put("precompute.border_s", "s", split.borderS)
	put("core.cycle_assemble_s", "s", split.assembleS)
	put("multichannel.plan_ms", "ms", split.planMs)
	put("broadcast.encode_cycle_ms", "ms", split.encodeMs)
	put("servercache.warm_load_s", "s", split.warmLoadS)

	// The untraced phase's tail, and its runtime and process figures: the
	// system's own.
	put("query_ms_p99", "ms", e.p99)
	d := plain.after
	s := plain.before
	answered := float64(max(e.answered, 1))
	put("runtime.allocs_per_query", "count", float64(d.allocs-s.allocs)/answered)
	put("runtime.alloc_bytes_per_query", "B", float64(d.allocBytes-s.allocBytes)/answered)
	gcShare := 0.0
	if tot := d.totalCPU - s.totalCPU; tot > 0 {
		gcShare = (d.gcCPU - s.gcCPU) / tot
	}
	put("runtime.gc_cpu_share", "ratio", gcShare)
	put("proc.cpu_util", "ratio", (d.cpu-s.cpu).Seconds()/(plain.wall.Seconds()*float64(runtime.NumCPU())))

	put("trace.qps_untraced", "1/s", qpsPlain)
	put("trace.qps_traced", "1/s", qpsTraced)
	overhead := 0.0
	if qpsPlain > 0 {
		overhead = 1 - qpsTraced/qpsPlain
	}
	put("trace.overhead_frac", "ratio", overhead)
	put("failed_frac", "ratio", frac(res.Failed, res.Attempted))
	return m
}

func report(out io.Writer, label string, e endToEnd) {
	fmt.Fprintf(out, "perfbench: %s: %d attempted, %d failed (%d wrong), qps %.4g, p50 %.4g ms, p90 %.4g ms, p99 %.4g ms (%d samples), cpu %.4g ms/query, tuning %.6g, latency %.6g, mem %.6g KiB\n",
		label, e.attempted, e.failed, e.wrong, e.qps, e.p50, e.p90, e.p99, e.samples, e.cpuMsPerQuery, e.tuningMean, e.latencyMean, e.memKBMean)
}

// printSum shows the replay layers' sum beside the client's self time, so
// the share the replay does not account for is visible.
func printSum(out io.Writer, m map[string]metric) {
	self := m["core.client.self_us_per_query"].Value
	sum := m["core.client.replay_sum_us_per_query"].Value
	fmt.Fprintf(out, "perfbench: client self %.4g us/query = replay layers %.4g us (accum %.4g ns/pkt, collector %.4g ns/pkt, dijkstra %.4g us) + unaccounted %.1f%%; tracing overhead %.1f%% of qps\n",
		self, sum, m["airidx.accum_ns_per_pkt"].Value, m["netdata.collector.process_ns_per_pkt"].Value,
		m["spath.dijkstra_us_per_query"].Value, 100*m["core.client.unaccounted_frac"].Value, 100*m["trace.overhead_frac"].Value)
}
