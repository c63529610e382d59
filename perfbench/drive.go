package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/deploy"
	"repro/internal/scheme"
)

// asker answers one query for one simulated device; after runs once the
// query's time has been taken (the traced path replays it then).
type asker interface {
	ask(ctx context.Context, q query) (scheme.Result, error)
	after()
}

// sessionAsker is the end-to-end path: the deployment's Session.Query.
type sessionAsker struct{ s *deploy.Session }

func (a sessionAsker) ask(ctx context.Context, q query) (scheme.Result, error) {
	return a.s.Query(ctx, q.s, q.t)
}

func (sessionAsker) after() {}

// outcome is one attempted query.
type outcome struct {
	idx       int           // index in the query list
	end       time.Duration // since the phase started
	ms        float64
	err       error
	wrong     bool
	firstPass bool
	dist      float64
	m         scheme.Result
}

func (o outcome) failed() bool { return o.err != nil || o.wrong }

// phase is one closed-loop timed phase.
type phase struct {
	wall     time.Duration
	sessions [][]outcome
	before   procSample
	after    procSample
	windows  []window
	width    time.Duration // of each window
}

// window is one equal slice of a phase's wall time. Rates and the resident
// set are reported as medians over the windows in which the host took the
// least CPU time from the machine (see quiet), so a burst of steal, a short
// stall, or one unlucky garbage collection moves a window, not the result.
type window struct {
	answered int64
	cpu      time.Duration
	wall     time.Duration
	rssMiB   float64 // peak resident set, sampled every rssEvery
	steal    float64 // share of the machine's CPU time the host took
}

// rssEvery is how often the window sampler reads the resident set.
const rssEvery = 10 * time.Millisecond

// windowsPerPhase is how many windows a phase is cut into.
const windowsPerPhase = 10

// bench is one run's state after set-up: the system on the air, the
// query list and its references.
type bench struct {
	sp   spec
	seed int64
	sys  *system
	qs   []query
	vs   *versions

	answered atomic.Int64
	due      chan struct{} // churn: one token per batchEvery answered queries
	// phaseDue counts the tokens issued in the current phase; past
	// phaseBatches none are issued, so rebuilds overlap a minority of a
	// phase's windows however fast the queries run.
	phaseDue atomic.Int64
}

// sessionOptions returns the options of session k: its tune-in position
// offline and the seed of its private loss pattern live.
func (b *bench) sessionOptions(k int) deploy.SessionOptions {
	rng := rand.New(rand.NewSource(b.seed*31 + int64(k)))
	return deploy.SessionOptions{
		TuneIn: rng.Intn(b.sys.d.Len()),
		Seed:   lossSeed(b.seed) + int64(k) + 1,
	}
}

// slice returns the query-list indexes of session k: a static round-robin
// split, so what each device asks does not depend on timing.
func (b *bench) slice(k int) []int {
	var idx []int
	for i := k; i < len(b.qs); i += b.sp.sessions {
		idx = append(idx, i)
	}
	return idx
}

// version returns the cycle version on the air (0 on a static broadcast).
func (b *bench) version() uint32 {
	if st := b.sys.d.Station(); st != nil && b.sp.churn {
		return st.Version()
	}
	return 0
}

// runPhase drives one closed loop per session for at least seconds of wall
// time and at least one full pass over each session's queries: a device
// poses its next query only when the previous one has been answered.
func (b *bench) runPhase(ctx context.Context, seconds float64, askers []asker) phase {
	ph := phase{sessions: make([][]outcome, len(askers))}
	var wg sync.WaitGroup
	b.phaseDue.Store(0)
	ph.before = sampleProc()
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	ph.width = time.Duration(seconds * float64(time.Second) / windowsPerPhase)
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		tick := time.NewTicker(ph.width)
		defer tick.Stop()
		rssTick := time.NewTicker(rssEvery)
		defer rssTick.Stop()
		prevN, prevCPU, prevT := b.answered.Load(), ph.before.cpu, start
		prevSteal, prevTotal := hostTicks()
		peak := residentMiB()
		for {
			select {
			case <-stop:
				return
			case <-rssTick.C:
				peak = max(peak, residentMiB())
			case now := <-tick.C:
				n, cpu := b.answered.Load(), sampleProc().cpu
				steal, total := hostTicks()
				peak = max(peak, residentMiB())
				w := window{answered: n - prevN, cpu: cpu - prevCPU, wall: now.Sub(prevT), rssMiB: peak}
				if total > prevTotal {
					w.steal = float64(steal-prevSteal) / float64(total-prevTotal)
				}
				ph.windows = append(ph.windows, w)
				prevN, prevCPU, prevT, peak = n, cpu, now, 0
				prevSteal, prevTotal = steal, total
			}
		}
	}()
	for k, a := range askers {
		wg.Add(1)
		go func(k int, a asker) {
			defer wg.Done()
			ph.sessions[k] = b.loop(ctx, b.slice(k), start, deadline, a)
		}(k, a)
	}
	wg.Wait()
	close(stop)
	sampler.Wait()
	ph.wall = time.Since(start)
	ph.after = sampleProc()
	return ph
}

func (b *bench) loop(ctx context.Context, idx []int, start, deadline time.Time, a asker) []outcome {
	var out []outcome
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		for _, i := range idx {
			if pass > 0 && !time.Now().Before(deadline) {
				break
			}
			o := b.one(ctx, i, pass == 0, a)
			o.end = time.Since(start)
			out = append(out, o)
		}
	}
	return out
}

// one poses query i and verifies the answer against the reference of
// every version that was on the air while it ran.
func (b *bench) one(ctx context.Context, i int, first bool, a asker) outcome {
	lo := b.version()
	t0 := time.Now()
	res, err := a.ask(ctx, b.qs[i])
	ms := float64(time.Since(t0)) / float64(time.Millisecond)
	hi := b.version()
	a.after()
	o := outcome{idx: i, ms: ms, err: err, firstPass: first, dist: res.Dist, m: res}
	if err == nil && !b.vs.accept(i, res.Dist, lo, hi) {
		o.wrong = true
	}
	if o.failed() {
		o.ms = math.Inf(1)
		return o
	}
	if n := b.answered.Add(1); b.due != nil && n%int64(b.sp.batchEvery) == 0 && b.phaseDue.Add(1) <= int64(b.sp.phaseBatches) {
		select {
		case b.due <- struct{}{}:
		default: // the writer is behind by a whole queue; drop the token
		}
	}
	return o
}

// writerStats times the churn writer's batches.
type writerStats struct {
	applyMs, swapMs, updateMs []float64
	err                       error
}

// writer applies one precomputed weight batch per due token through
// Manager.Apply and Station.Swap, waiting for each swap to reach the air,
// until stop closes or the batches run out.
func (b *bench) writer(stop <-chan struct{}, ws *writerStats) {
	mgr, st := b.sys.d.Manager(), b.sys.d.Station()
	for v, ups := range b.vs.batches {
		select {
		case <-b.due:
		case <-stop:
			return
		}
		t0 := time.Now()
		build, err := mgr.Apply(ups)
		if err != nil {
			ws.err = fmt.Errorf("apply batch %d: %w", v+1, err)
			return
		}
		if build.Version != uint32(v+1) {
			ws.err = fmt.Errorf("manager built version %d, want %d", build.Version, v+1)
			return
		}
		t1 := time.Now()
		applied, err := st.Swap(build.Cycle)
		if err != nil {
			ws.err = fmt.Errorf("swap to v%d: %w", build.Version, err)
			return
		}
		if _, ok := <-applied; !ok {
			return // the station left the air with the swap pending
		}
		t2 := time.Now()
		ws.applyMs = append(ws.applyMs, msBetween(t0, t1))
		ws.swapMs = append(ws.swapMs, msBetween(t1, t2))
		ws.updateMs = append(ws.updateMs, msBetween(t0, t2))
	}
}

func msBetween(a, b time.Time) float64 { return float64(b.Sub(a)) / float64(time.Millisecond) }

// endToEnd summarizes a phase into the end-to-end metrics and counts.
type endToEnd struct {
	attempted, failed, wrong, answered int
	// qps, cpuMsPerQuery, rssMiB, p50 and p90 are medians over the phase's
	// quiet windows when it has at least three windows (rssMiB is 0
	// otherwise); p99 is over every attempted query.
	qps, p50, p90, p99, cpuMsPerQuery  float64
	rssMiB                             float64
	tuningMean, latencyMean, memKBMean float64
	samples                            int
}

// quiet returns the indexes of the windows whose steal is at most the
// median steal: at least half of them. On a shared host the hypervisor
// gives the machine's CPU time to other tenants in bursts of seconds, and a
// query waits whenever the station's or the client's CPU is taken, so a
// burst slows every query it overlaps: the slowdown measures the host's
// other tenants, not the program.
func quiet(ws []window) []int {
	steal := make([]float64, len(ws))
	for i, w := range ws {
		steal[i] = w.steal
	}
	limit := median(steal)
	var keep []int
	for i, w := range ws {
		if w.steal <= limit {
			keep = append(keep, i)
		}
	}
	return keep
}

func summarize(ph phase) endToEnd {
	var e endToEnd
	var ms []float64
	var sumT, sumL, sumM, nFirst float64
	for _, outs := range ph.sessions {
		for _, o := range outs {
			e.attempted++
			ms = append(ms, o.ms)
			if o.failed() {
				e.failed++
				if o.wrong {
					e.wrong++
				}
				continue
			}
			e.answered++
			if o.firstPass {
				sumT += float64(o.m.Metrics.TuningPackets)
				sumL += float64(o.m.Metrics.LatencyPackets)
				sumM += float64(o.m.Metrics.PeakMemBytes)
				nFirst++
			}
		}
	}
	e.samples = len(ms)
	e.p50 = quantile(ms, 0.50)
	e.p90 = quantile(ms, 0.90)
	e.p99 = quantile(ms, 0.99)
	e.qps = float64(e.answered) / ph.wall.Seconds()
	if e.answered > 0 {
		e.cpuMsPerQuery = float64(ph.after.cpu-ph.before.cpu) / float64(time.Millisecond) / float64(e.answered)
	}
	if len(ph.windows) >= 3 {
		byWindow := make([][]float64, len(ph.windows))
		for _, outs := range ph.sessions {
			for _, o := range outs {
				if w := int(o.end / ph.width); w < len(byWindow) {
					byWindow[w] = append(byWindow[w], o.ms)
				}
			}
		}
		var qps, cpu, rss, p50, p90 []float64
		for _, i := range quiet(ph.windows) {
			w := ph.windows[i]
			qps = append(qps, float64(w.answered)/w.wall.Seconds())
			c := math.Inf(1)
			if w.answered > 0 {
				c = float64(w.cpu) / float64(time.Millisecond) / float64(w.answered)
			}
			cpu = append(cpu, c)
			rss = append(rss, w.rssMiB)
			if len(byWindow[i]) > 0 {
				p50 = append(p50, quantile(byWindow[i], 0.50))
				p90 = append(p90, quantile(byWindow[i], 0.90))
			}
		}
		e.qps, e.cpuMsPerQuery, e.rssMiB = median(qps), median(cpu), median(rss)
		if len(p50) >= 3 {
			e.p50, e.p90 = median(p50), median(p90)
		}
	}
	if nFirst > 0 {
		e.tuningMean, e.latencyMean, e.memKBMean = sumT/nFirst, sumL/nFirst, sumM/nFirst/1024
	}
	return e
}
