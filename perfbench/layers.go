package main

import (
	"context"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataflow"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/wmm"
)

// ---- wire decorator (wc-tcp, traced run) ----

// Transport operations the decorator times.
const (
	opLand = iota
	opShipBatch
	opGet
	opPeek
	opRelease
	numOps
)

var opNames = [numOps]string{"land", "ship_batch", "get", "peek", "release"}

// tracedTransport wraps one wire client and times every data-path call.
// Embedding forwards the rest of transport.Transport and ObservedBps (the
// Eq. 1 throughput meter), so the engine's pressure path is unchanged.
type tracedTransport struct {
	*transport.Client
	on  atomic.Bool
	mu  sync.Mutex
	dur [numOps][]time.Duration
}

func (t *tracedTransport) time(op int, start time.Time) {
	if !t.on.Load() {
		return
	}
	d := time.Since(start)
	t.mu.Lock()
	t.dur[op] = append(t.dur[op], d)
	t.mu.Unlock()
}

func (t *tracedTransport) ShipBatch(ctx context.Context, pace transport.Pacing, reqs []wmm.PutReq) error {
	defer t.time(opShipBatch, time.Now())
	return t.Client.ShipBatch(ctx, pace, reqs)
}

func (t *tracedTransport) Land(ctx context.Context, pace transport.Pacing, req wmm.PutReq) error {
	defer t.time(opLand, time.Now())
	return t.Client.Land(ctx, pace, req)
}

func (t *tracedTransport) Get(ctx context.Context, key wmm.Key) (dataflow.Value, bool, error) {
	defer t.time(opGet, time.Now())
	return t.Client.Get(ctx, key)
}

func (t *tracedTransport) Peek(ctx context.Context, key wmm.Key) (dataflow.Value, bool, error) {
	defer t.time(opPeek, time.Now())
	return t.Client.Peek(ctx, key)
}

func (t *tracedTransport) Release(ctx context.Context, reqID string) error {
	defer t.time(opRelease, time.Now())
	return t.Client.Release(ctx, reqID)
}

// ---- registry and sink readings ----

// reading is the program's own instruments at one instant.
type reading struct {
	reg     obs.Snapshot
	sink    wmm.Stats
	memMBs  float64
	mallocs uint64
	allocB  uint64
}

func read(r *rig, withMem bool) reading {
	rd := reading{reg: obs.Default().Snapshot(), sink: r.sys.SinkStats()}
	for _, n := range r.nodes {
		if n.Sink != nil {
			rd.memMBs += n.Sink.MemIntegralMBs(n.Elapsed())
		}
	}
	if withMem {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		rd.mallocs, rd.allocB = ms.Mallocs, ms.TotalAlloc
	}
	return rd
}

func counterDelta(a, b reading, name string) int64 {
	return b.reg.Counters[name] - a.reg.Counters[name]
}

func histDelta(a, b reading, name string) obs.HistSnapshot {
	hb, ha := b.reg.Histograms[name], a.reg.Histograms[name]
	for i := range hb.Counts {
		hb.Counts[i] -= ha.Counts[i]
	}
	hb.Sum -= ha.Sum
	hb.Count -= ha.Count
	return hb
}

// histQuantile interpolates the q-quantile inside the log2 bucket that
// holds it (the registry's own Quantile reports the bucket's upper bound,
// a 2x step that would hide most changes).
func histQuantile(h obs.HistSnapshot, q float64) float64 {
	if h.Count <= 0 {
		return 0
	}
	rank := q * float64(h.Count)
	var cum float64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo := 0.0
			if i > 0 {
				lo = float64(obs.BucketBound(i-1) + 1)
			}
			hi := float64(obs.BucketBound(i))
			return lo + (hi-lo)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	return float64(obs.BucketBound(obs.HistBuckets - 1))
}

// ---- span ledger ----

// Stage labels of the request ledger, in request order.
const (
	lgLag = iota
	lgInvoke
	lgQueue
	lgExec
	lgDLUWait
	lgShip
	lgDeliver
	numLedger
)

var ledgerNames = [numLedger]string{"loadgen lag", "invoke", "queue", "exec", "dlu wait", "ship", "deliver"}

type inst struct{ trig, start, fin time.Duration }

type instKey struct {
	fn  string
	idx int
}

type ival struct {
	lo, hi time.Duration
	label  int
}

// spanStats is what the traced phase's spans yield.
type spanStats struct {
	queue, exec, ship, gap, unattr []time.Duration
	// ledger sums attributed time per stage over the requests whose
	// latency lies between the traced p45 and p55, with the sum of their
	// latencies, for the "where one request's time goes" table.
	ledger    [numLedger]time.Duration
	ledgerUn  time.Duration
	ledgerLat time.Duration
	ledgerN   int
	matched   int
}

// analyzeSpans joins the traced phase's samples with their span records.
// Span stage times are on the engine's clock (time since NewSystem); the
// offset onto the phase clock is pinned by each request's req-arrived
// stage, which is recorded inside the InvokeWith call the benchmark timed.
func analyzeSpans(res *phaseResult, spans []obs.SpanSnapshot, stages []string) spanStats {
	var st spanStats
	byID := make(map[string][]obs.StageSnapshot, len(spans))
	for _, s := range spans {
		byID[s.ReqID] = s.Stages
	}
	lo, hi := time.Duration(math.MinInt64), time.Duration(math.MaxInt64)
	for _, s := range res.samples {
		sp := byID[s.reqID]
		if s.status != stOK || len(sp) == 0 || sp[0].Kind != "req-arrived" {
			continue
		}
		if d := s.sent - sp[0].At; d > lo {
			lo = d
		}
		if d := s.ret - sp[0].At; d < hi {
			hi = d
		}
	}
	off := lo
	if hi >= lo {
		off = (lo + hi) / 2
	}
	lats := res.latencies()
	p45, p55 := quantile(lats, 0.45), quantile(lats, 0.55)
	entry, mid, sink := stages[0], stages[1], stages[2]
	pred := map[string]string{mid: entry, sink: mid}
	for _, s := range res.samples {
		sp := byID[s.reqID]
		if s.status != stOK || len(sp) == 0 {
			continue
		}
		st.matched++
		insts := map[instKey]*inst{}
		get := func(k instKey) *inst {
			if insts[k] == nil {
				insts[k] = &inst{-1, -1, -1}
			}
			return insts[k]
		}
		type stage struct {
			fn  string
			idx int
			at  time.Duration
		}
		var sents, arrivals []stage
		pending := map[string][]time.Duration{} // producer fn -> unmatched data-sent times, FIFO
		userSent := time.Duration(-1)
		for _, g := range sp {
			at := g.At + off
			switch g.Kind {
			case "triggered":
				if i := get(instKey{g.Fn, g.Idx}); i.trig < 0 {
					i.trig = at
				}
			case "started":
				if i := get(instKey{g.Fn, g.Idx}); i.start < 0 {
					i.start = at
				}
			case "finished":
				get(instKey{g.Fn, g.Idx}).fin = at
			case "data-sent":
				if g.Fn == sink {
					userSent = at
					continue
				}
				sents = append(sents, stage{g.Fn, g.Idx, at})
				pending[g.Fn] = append(pending[g.Fn], at)
			case "data-arrived":
				arrivals = append(arrivals, stage{g.Fn, g.Idx, at})
				// Arrivals name their consumer, not their producer: pair
				// each with the oldest unmatched send of the upstream
				// function (exact for one DLU daemon, which ships in order).
				if p := pending[pred[g.Fn]]; len(p) > 0 {
					st.ship = append(st.ship, at-p[0])
					pending[pred[g.Fn]] = p[1:]
				}
			}
		}
		for k, i := range insts {
			if i.trig >= 0 && i.start >= 0 {
				st.queue = append(st.queue, i.start-i.trig)
			}
			if i.start >= 0 && i.fin >= 0 {
				st.exec = append(st.exec, i.fin-i.start)
			}
			if k.fn == mid && i.start >= 0 {
				if e := insts[instKey{entry, 0}]; e != nil && e.fin >= 0 {
					st.gap = append(st.gap, i.start-e.fin)
				}
			}
		}
		sk := insts[instKey{sink, 0}]
		if sk != nil && sk.start >= 0 {
			latest := time.Duration(-1)
			for k, i := range insts {
				if k.fn == mid && i.fin > latest {
					latest = i.fin
				}
			}
			if latest >= 0 {
				st.gap = append(st.gap, sk.start-latest)
			}
		}

		// Critical path, walked back from the sink. The last arrival at the
		// sink triggered it; the last send of a middle instance before that
		// arrival names the middle instance on the path; that instance's
		// arrival ends the entry edge, whose sends leave one DLU daemon in
		// order, so the whole edge from the entry's first send is on the
		// path.
		iv := []ival{{s.due, s.sent, lgLag}, {s.sent, s.ret, lgInvoke}}
		addInst := func(i *inst, firstSent time.Duration) {
			if i == nil {
				return
			}
			if i.trig >= 0 && i.start >= 0 {
				iv = append(iv, ival{i.trig, i.start, lgQueue})
			}
			if i.start >= 0 && i.fin >= 0 {
				iv = append(iv, ival{i.start, i.fin, lgExec})
			}
			if i.fin >= 0 && firstSent > i.fin {
				iv = append(iv, ival{i.fin, firstSent, lgDLUWait})
			}
		}
		lastAt := func(fn string, idx int, before time.Duration, list []stage) (stage, bool) {
			var out stage
			ok := false
			for _, g := range list {
				if g.fn == fn && (idx < 0 || g.idx == idx) && g.at <= before && (!ok || g.at >= out.at) {
					out, ok = g, true
				}
			}
			return out, ok
		}
		firstSent := func(fn string, idx int) time.Duration {
			for _, g := range sents {
				if g.fn == fn && g.idx == idx {
					return g.at
				}
			}
			return -1
		}
		entrySent := firstSent(entry, 0)
		addInst(insts[instKey{entry, 0}], entrySent)
		if a, ok := lastAt(sink, -1, s.done, arrivals); ok {
			if m, ok := lastAt(mid, -1, a.at, sents); ok {
				iv = append(iv, ival{m.at, a.at, lgShip})
				addInst(insts[instKey{mid, m.idx}], firstSent(mid, m.idx))
				if am, ok := lastAt(mid, m.idx, a.at, arrivals); ok && entrySent >= 0 {
					iv = append(iv, ival{entrySent, am.at, lgShip})
				}
			}
		}
		addInst(sk, userSent)
		if userSent >= 0 {
			iv = append(iv, ival{userSent, s.done, lgDeliver})
		}
		attr, covered := attribute(iv, s.due, s.done)
		un := s.lat - covered
		st.unattr = append(st.unattr, un)
		if s.lat >= p45 && s.lat <= p55 {
			for i := range attr {
				st.ledger[i] += attr[i]
			}
			st.ledgerUn += un
			st.ledgerLat += s.lat
			st.ledgerN++
		}
	}
	for _, xs := range [][]time.Duration{st.queue, st.exec, st.ship, st.gap, st.unattr} {
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	}
	return st
}

// attribute clips the intervals to [from, to] and gives every instant they
// cover to the interval that started last (the request's frontier). It
// returns the time per label and the total covered.
func attribute(iv []ival, from, to time.Duration) ([numLedger]time.Duration, time.Duration) {
	var out [numLedger]time.Duration
	var pts []time.Duration
	for i := range iv {
		if iv[i].lo < from {
			iv[i].lo = from
		}
		if iv[i].hi > to {
			iv[i].hi = to
		}
		if iv[i].hi > iv[i].lo {
			pts = append(pts, iv[i].lo, iv[i].hi)
		}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i] < pts[j] })
	var covered time.Duration
	for k := 0; k+1 < len(pts); k++ {
		a, b := pts[k], pts[k+1]
		if b <= a {
			continue
		}
		best := -1
		for i := range iv {
			if iv[i].lo <= a && iv[i].hi >= b && (best < 0 || iv[i].lo >= iv[best].lo) {
				best = i
			}
		}
		if best >= 0 {
			out[iv[best].label] += b - a
			covered += b - a
		}
	}
	return out, covered
}
