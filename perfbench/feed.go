package main

import (
	"fmt"
	"time"

	"repro/internal/broadcast"
	"repro/internal/packet"
)

// reception is one Feed.At call as the tuner saw it.
type reception struct {
	abs int
	pkt packet.Packet
	ok  bool
}

// recorder collects what a timed feed observed during one query: every
// reception, one per At call (kept so the client-side layers can be
// replayed on exactly the query's packets), and the time spent inside the
// wrapped At on every every-th call. Its buffers are reused across queries.
type recorder struct {
	every        int
	sampledNanos int64
	sampled      int
	rx           []reception
}

// offlineSampleEvery is the At sampling interval on offline feeds: reading
// the clock around every call would cost more than an offline Rx.At itself
// and inflate the client time the trace reports. Live and wire feeds are
// timed on every call: their At may block on the station or the socket,
// and a few long waits among many buffered returns would make a sample
// unrepresentative.
const offlineSampleEvery = 8

func (r *recorder) reset() {
	r.sampledNanos, r.sampled = 0, 0
	r.rx = r.rx[:0]
}

// atNanos estimates the total time spent inside At from the sampled calls.
func (r *recorder) atNanos() int64 {
	if r.sampled == 0 {
		return 0
	}
	return r.sampledNanos * int64(len(r.rx)) / int64(r.sampled)
}

// timedFeed wraps a broadcast.Feed, timing its At calls. Len and At are
// the only methods it adds; the optional interfaces the Tuner type-asserts
// are forwarded by the combinations below, so wrapping a feed never changes
// which code paths the tuner takes.
type timedFeed struct {
	inner broadcast.Feed
	rec   *recorder
}

func (f *timedFeed) Len() int { return f.inner.Len() }

func (f *timedFeed) At(abs int) (packet.Packet, bool) {
	r := f.rec
	var p packet.Packet
	var ok bool
	if r.every <= 1 || len(r.rx)%r.every == 0 {
		t0 := time.Now()
		p, ok = f.inner.At(abs)
		r.sampledNanos += int64(time.Since(t0))
		r.sampled++
	} else {
		p, ok = f.inner.At(abs)
	}
	r.rx = append(r.rx, reception{abs: abs, pkt: p, ok: ok})
	return p, ok
}

type clockedPart struct{ c broadcast.Clocked }

func (x clockedPart) Clock() int  { return x.c.Clock() }
func (x clockedPart) TuneIn() int { return x.c.TuneIn() }

type hoppingPart struct{ h broadcast.Hopping }

func (x hoppingPart) WaitFor(abs int) int { return x.h.WaitFor(abs) }
func (x hoppingPart) Overhead() int       { return x.h.Overhead() }

type refreshPart struct{ r broadcast.Refreshable }

func (x refreshPart) Stale() bool { return x.r.Stale() }

type prefetchPart struct{ p broadcast.Prefetcher }

func (x prefetchPart) Prefetch(abs, n int) { x.p.Prefetch(abs, n) }

// One wrapper type per optional-interface set that a concrete feed of the
// system implements: broadcast.Channel (none), station.Sub (Prefetcher),
// wire.Receiver (Clocked, Prefetcher, Refreshable) and multichannel.Rx (all
// four).
type (
	feedP struct {
		*timedFeed
		prefetchPart
	}
	feedCPR struct {
		*timedFeed
		clockedPart
		prefetchPart
		refreshPart
	}
	feedCHPR struct {
		*timedFeed
		clockedPart
		hoppingPart
		prefetchPart
		refreshPart
	}
)

// optionalSet names the optional Feed interfaces f implements, as a bit set
// in the order Clocked, Hopping, Refreshable, Prefetcher.
func optionalSet(f broadcast.Feed) int {
	set := 0
	if _, ok := f.(broadcast.Clocked); ok {
		set |= 1
	}
	if _, ok := f.(broadcast.Hopping); ok {
		set |= 2
	}
	if _, ok := f.(broadcast.Refreshable); ok {
		set |= 4
	}
	if _, ok := f.(broadcast.Prefetcher); ok {
		set |= 8
	}
	return set
}

// wrapFeed returns a timing wrapper around f that implements exactly the
// optional interfaces f implements, recording into rec.
func wrapFeed(f broadcast.Feed, rec *recorder) (broadcast.Feed, error) {
	tf := &timedFeed{inner: f, rec: rec}
	var w broadcast.Feed
	switch set := optionalSet(f); set {
	case 0:
		w = tf
	case 8:
		w = feedP{tf, prefetchPart{f.(broadcast.Prefetcher)}}
	case 1 | 4 | 8:
		w = feedCPR{tf, clockedPart{f.(broadcast.Clocked)}, prefetchPart{f.(broadcast.Prefetcher)}, refreshPart{f.(broadcast.Refreshable)}}
	case 1 | 2 | 4 | 8:
		w = feedCHPR{tf, clockedPart{f.(broadcast.Clocked)}, hoppingPart{f.(broadcast.Hopping)},
			prefetchPart{f.(broadcast.Prefetcher)}, refreshPart{f.(broadcast.Refreshable)}}
	default:
		return nil, fmt.Errorf("perfbench: no timing wrapper for feed %T (optional interface set %04b)", f, set)
	}
	if optionalSet(w) != optionalSet(f) {
		return nil, fmt.Errorf("perfbench: timing wrapper for %T changes its optional interfaces", f)
	}
	return w, nil
}
