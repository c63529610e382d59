package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/airidx"
	"repro/internal/broadcast"
	"repro/internal/deploy"
	"repro/internal/graph"
	"repro/internal/multichannel"
	"repro/internal/netdata"
	"repro/internal/packet"
	"repro/internal/scheme"
	"repro/internal/spath"
	"repro/internal/update"
	"repro/internal/wire"
)

// counter indexes layerStats.
type counter int

// Per-layer counters of the traced path. Times are nanoseconds.
const (
	cQueries counter = iota
	cWallNs
	cAttachNs
	cAtNs
	cAtCalls
	cTuning
	cLost
	cHops
	cRxMissed
	cSubMissed
	cSubscribeNs
	cSubscribes
	cDialNs
	cDials
	cCorrupted
	cWireLost
	cRedials
	cReentries
	// Replay of each query's receptions through the client-side layers.
	cRecNs
	cRecPkts
	cAccNs
	cAccPkts
	cResetNs
	cResets
	cProcNs
	cProcPkts
	cNodes
	cDijNs
	cSettled
	cReplayWrong
	nCounters
)

// layerStats accumulates the per-layer counts and busy times of the traced
// path: per query, then over all queries and over the first pass.
type layerStats [nCounters]int64

func (s *layerStats) add(o *layerStats) {
	for i := range s {
		s[i] += o[i]
	}
}

// span is one timed interval of the traced path. Spans of one query share
// its number; Parent indexes the span that caused this one (-1 for a root).
type span struct {
	Query  int    `json:"q"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	// Count is the number of calls an aggregated span stands for (Feed.At
	// calls, replayed packets); zero for a single call.
	Count int `json:"count,omitempty"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	base  time.Time
	spans []span
}

// maxSpans bounds the in-memory log; later spans are counted, not kept.
const maxSpans = 1 << 20

func (l *spanLog) add(q int, name string, start, end time.Time, parent, count int) int {
	if l == nil || len(l.spans) >= maxSpans {
		return -1
	}
	l.spans = append(l.spans, span{Query: q, Name: name, Start: int64(start.Sub(l.base)),
		End: int64(end.Sub(l.base)), Parent: parent, Count: count})
	return len(l.spans) - 1
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedClient answers queries the way Session.Query does, rebuilt from the
// system's public constructors so that a timing wrapper can sit between
// the tuner and the feed.
type tracedClient struct {
	sp     spec
	sys    *system
	g      *graph.Graph
	client scheme.Client
	air    *multichannel.Air  // offline, K > 1
	ch     *broadcast.Channel // offline, K == 1
	cursor int                // offline tune-in, as Session keeps it
	rng    *rand.Rand         // live subscription seeds, as Session draws them
	rec    recorder
	rp     *replayer
	st     layerStats  // the current query's
	all    *layerStats // every query's
	first  *layerStats // the first pass's: counts repeat exactly offline
	spans  *spanLog
	ref    func(i int) float64 // static reference of query i; nil when churning
	qn     int                 // queries asked so far
	// firstPass is the number of queries in one pass over this device's
	// slice of the query list.
	firstPass int
	pending   pendingReplay
}

// newTracedClient opens the traced path of one device with the options a
// Session would have been given.
func newTracedClient(b *bench, k int, all, first *layerStats, spans *spanLog) (*tracedClient, error) {
	d := b.sys.d
	opts := b.sessionOptions(k)
	c := &tracedClient{
		sp: b.sp, sys: b.sys, g: b.sys.g, client: d.Server().NewClient(),
		cursor: opts.TuneIn, rng: rand.New(rand.NewSource(opts.Seed)),
		rp:  newReplayer(b.sp.method == deploy.NR, b.sys.g.NumNodes()),
		all: all, first: first, spans: spans, firstPass: len(b.slice(k)),
	}
	if !b.sp.churn {
		c.ref = func(i int) float64 { return b.vs.refs[0][i] }
	}
	switch {
	case b.sp.live || b.sp.wire:
		c.rec.every = 1
	case b.sp.channels > 1:
		c.rec.every = offlineSampleEvery
		plan, err := multichannel.Build(d.Cycle(), b.sp.channels, multichannel.PlanOptions{})
		if err != nil {
			return nil, err
		}
		if c.air, err = multichannel.NewAir(plan, b.sp.loss, lossSeed(b.seed)); err != nil {
			return nil, err
		}
	default:
		c.rec.every = offlineSampleEvery
		ch, err := broadcast.NewChannel(d.Cycle(), b.sp.loss, lossSeed(b.seed))
		if err != nil {
			return nil, err
		}
		c.ch = ch
	}
	return c, nil
}

// maxFreshFeeds mirrors Session.Query's bound on re-entries that need a
// fresh feed; sessionRedials mirrors its wire re-dial budget.
const (
	maxFreshFeeds  = 4
	sessionRedials = 2
)

func (c *tracedClient) ask(ctx context.Context, q query) (scheme.Result, error) {
	i := c.qn
	c.qn++
	sq := scheme.QueryFor(c.g, q.s, q.t)
	c.rec.reset()
	c.st = layerStats{}
	t0 := time.Now()
	root := c.spans.add(i, "deploy.session.query", t0, t0, -1, 0)
	var res scheme.Result
	var err error
	var attach time.Duration
	for attempt := 0; ; attempt++ {
		var a time.Duration
		res, a, err = c.attempt(ctx, sq, root, i)
		attach += a
		if (errors.Is(err, update.ErrStaleFeed) || errors.Is(err, wire.ErrRestarted)) && attempt < maxFreshFeeds {
			c.st[cReentries]++
			continue
		}
		break
	}
	t1 := time.Now()
	if root >= 0 {
		c.spans.spans[root].End = int64(t1.Sub(c.spans.base))
	}
	// The Feed.At calls are one aggregated span: its length is their total,
	// laid from the query's start, and its count the number of calls.
	c.spans.add(i, c.atSpanName(), t0, t0.Add(time.Duration(c.rec.atNanos())), root, len(c.rec.rx))
	st := &c.st
	st[cQueries] = 1
	st[cWallNs] = int64(t1.Sub(t0))
	st[cAttachNs] = int64(attach)
	st[cAtNs] = c.rec.atNanos()
	st[cAtCalls] = int64(len(c.rec.rx))

	c.pending = pendingReplay{q: sq, idx: q.idx, n: i, answered: err == nil}
	return res, err
}

// pendingReplay is the last query asked; after replays its receptions.
type pendingReplay struct {
	q        scheme.Query
	idx, n   int
	answered bool
}

// after replays the last query's receptions through the client-side
// layers, outside the query's timing, and folds its stats in.
func (c *tracedClient) after() {
	p := c.pending
	st := &c.st
	r := c.rp.replay(c.rec.rx, p.q, c.sys.d.Len(), st, c.spans, p.n)
	if p.answered && c.ref != nil && !sameDist(r.Dist, c.ref(p.idx)) {
		st[cReplayWrong]++
	}
	c.all.add(st)
	if p.n < c.firstPass {
		c.first.add(st)
	}
}

func (c *tracedClient) atSpanName() string {
	switch {
	case c.sp.wire:
		return "wire.receiver.at"
	case c.sp.channels > 1:
		return "multichannel.rx.at"
	case c.sp.live:
		return "station.sub.at"
	default:
		return "broadcast.channel.at"
	}
}

// attempt runs one attach → query → release cycle and returns the time
// spent attaching the feed (subscribe or dial).
func (c *tracedClient) attempt(ctx context.Context, q scheme.Query, root, i int) (res scheme.Result, attach time.Duration, err error) {
	d := c.sys.d
	var feed broadcast.Feed
	var start int
	var finish func()
	t0 := time.Now()
	switch {
	case c.air != nil:
		rx, err := c.air.Rx(c.cursor, multichannel.RxOptions{})
		if err != nil {
			return res, 0, err
		}
		feed, start = rx, rx.StartPos()
		finish = func() {
			c.cursor = rx.Clock()
			c.st[cHops] += int64(rx.Hops())
			c.st[cRxMissed] += int64(rx.Missed())
			rx.Close()
		}
	case c.ch != nil:
		feed, start = c.ch, c.cursor
	case d.MultiStation() != nil:
		rx, err := d.MultiStation().Subscribe(c.sp.loss, c.rng.Int63(), multichannel.RxOptions{})
		if err != nil {
			return res, 0, err
		}
		feed, start = rx, rx.StartPos()
		attach = time.Since(t0)
		c.st[cSubscribeNs] += int64(attach)
		c.st[cSubscribes]++
		finish = func() {
			c.st[cHops] += int64(rx.Hops())
			c.st[cRxMissed] += int64(rx.Missed())
			rx.Close()
		}
	case d.Station() != nil:
		sub, err := d.Station().Subscribe(c.sp.loss, c.rng.Int63())
		if err != nil {
			return res, 0, err
		}
		feed, start = sub, sub.Start()
		attach = time.Since(t0)
		c.st[cSubscribeNs] += int64(attach)
		c.st[cSubscribes]++
		finish = func() {
			c.st[cSubMissed] += int64(sub.Missed())
			sub.Close()
		}
	case c.sp.wire:
		rx, err := wire.Dial(c.sys.bc.Addr().String(), wire.ReceiverOptions{Loss: c.sp.loss, Seed: c.rng.Int63(), Redial: sessionRedials})
		if err != nil {
			return res, 0, err
		}
		attach = time.Since(t0)
		c.st[cDialNs] += int64(attach)
		c.st[cDials]++
		if rx.Len() != d.Len() {
			rx.Close()
			return res, attach, fmt.Errorf("remote cycle is %d packets, local build has %d: %w", rx.Len(), d.Len(), wire.ErrRestarted)
		}
		feed, start = rx, rx.Start()
		finish = func() {
			c.st[cCorrupted] += int64(rx.Corrupted())
			c.st[cWireLost] += int64(rx.WireLost())
			c.st[cRedials] += int64(rx.Redials())
			rx.Close()
		}
	default:
		return res, 0, fmt.Errorf("perfbench: deployment has no transport")
	}
	if attach > 0 {
		c.spans.add(i, "attach", t0, t0.Add(attach), root, 0)
	}
	w, err := wrapFeed(feed, &c.rec)
	if err != nil {
		if finish != nil {
			finish()
		}
		return res, attach, err
	}
	t := broadcast.NewFeedTuner(w, start)
	res, err = c.run(ctx, t, q)
	c.st[cTuning] += int64(t.Tuning())
	c.st[cLost] += int64(t.Lost())
	if finish != nil {
		finish()
	} else {
		c.cursor = t.Pos()
	}
	return res, attach, err
}

// run is Session.queryOnce's client call: bound to ctx, re-entering across
// cycle swaps on a dynamic deployment.
func (c *tracedClient) run(ctx context.Context, t *broadcast.Tuner, q scheme.Query) (res scheme.Result, err error) {
	t.Bind(ctx)
	defer broadcast.RecoverCancel(&err)
	if c.sys.d.Manager() != nil {
		var attempts int
		res, attempts, err = update.Query(c.client, t, q)
		c.st[cReentries] += int64(attempts - 1)
		return res, err
	}
	return c.client.Query(t, q)
}

// replayer feeds one query's recorded receptions through the client-side
// layers one at a time, timing each: record iteration, index accumulation,
// partial-network collection and the final Dijkstra.
type replayer struct {
	nr       bool
	numNodes int
	splits   *airidx.SplitsAccum
	offs     *airidx.OffsetsAccum
	rows     *airidx.NRRowsAccum
	cells    *airidx.CellsAccum
	coll     *netdata.Collector
	search   spath.Search

	idx, data []reception
	records   int
	countFn   func(uint8, []byte) bool
	addFn     func(uint8, []byte) bool
}

func newReplayer(nr bool, numNodes int) *replayer {
	r := &replayer{nr: nr, numNodes: numNodes, coll: netdata.NewCollector(numNodes, nil)}
	r.countFn = func(uint8, []byte) bool { r.records++; return true }
	r.addFn = r.add
	return r
}

func (r *replayer) add(tag uint8, data []byte) bool {
	switch tag {
	case packet.TagKDSplits:
		r.splits.Add(data)
	case packet.TagRegionOffsets:
		r.offs.Add(data)
	case packet.TagNRRow:
		if r.rows != nil {
			r.rows.Add(data)
		}
	case packet.TagEBCells:
		if r.cells != nil {
			r.cells.Add(data)
		}
	}
	return true
}

// replay runs the layers over rx and returns the replayed search result.
func (r *replayer) replay(rx []reception, q scheme.Query, cycleLen int, st *layerStats, spans *spanLog, qn int) spath.Result {
	r.idx, r.data = r.idx[:0], r.data[:0]
	regions, copies := 0, 0
	intact := 0
	for _, x := range rx {
		if !x.ok {
			continue
		}
		intact++
		switch x.pkt.Kind {
		case packet.KindIndex:
			r.idx = append(r.idx, x)
			if m, ok := metaOf(x.pkt); ok {
				regions = m.NumRegions
				if m.Seq == 0 {
					copies++
				}
			}
		case packet.KindData:
			r.data = append(r.data, x)
		}
	}
	parent := spans.add(qn, "replay", time.Now(), time.Now(), -1, 0)
	step := func(name string, t0 time.Time, n int, ns *int64) {
		t1 := time.Now()
		*ns += int64(t1.Sub(t0))
		spans.add(qn, name, t0, t1, parent, n)
	}

	t0 := time.Now()
	for _, x := range rx {
		if x.ok {
			packet.ForEachRecord(x.pkt.Payload, r.countFn)
		}
	}
	step("packet.records", t0, intact, &st[cRecNs])
	st[cRecPkts] += int64(intact)

	if regions > 0 {
		r.splits = airidx.ResetSplitsAccum(r.splits, regions)
		r.offs = airidx.ResetOffsetsAccum(r.offs, regions)
		if r.nr {
			r.rows = airidx.ResetNRRowsAccum(r.rows, regions)
		} else {
			r.cells = airidx.ResetCellsAccum(r.cells, regions)
		}
		t0 = time.Now()
		for _, x := range r.idx {
			packet.ForEachRecord(x.pkt.Payload, r.addFn)
		}
		step("airidx.accum", t0, len(r.idx), &st[cAccNs])
		st[cAccPkts] += int64(len(r.idx))
		if r.nr {
			copies = max(copies, 1)
			t0 = time.Now()
			for k := 0; k < copies; k++ {
				r.rows.Reset()
			}
			step("airidx.nrrows_reset", t0, copies, &st[cResetNs])
			st[cResets] += int64(copies)
		}
	}

	r.coll.Reset(r.numNodes, nil)
	t0 = time.Now()
	for _, x := range r.data {
		r.coll.Process(x.abs%cycleLen, x.pkt)
	}
	step("netdata.collector.process", t0, len(r.data), &st[cProcNs])
	st[cProcPkts] += int64(len(r.data))
	st[cNodes] += int64(r.coll.Net.NumPresent())

	t0 = time.Now()
	res := r.search.Dijkstra(r.coll.Net, q.S, q.T)
	step("spath.dijkstra", t0, 0, &st[cDijNs])
	st[cSettled] += int64(res.Settled)
	if parent >= 0 {
		spans.spans[parent].End = int64(time.Since(spans.base))
	}
	return res
}

// metaOf extracts an index packet's TagMeta record.
func metaOf(p packet.Packet) (meta airidx.Meta, found bool) {
	packet.ForEachRecord(p.Payload, func(tag uint8, data []byte) bool {
		if tag == packet.TagMeta {
			meta, found = airidx.DecodeMeta(data)
			return false
		}
		return true
	})
	return meta, found
}
