package main

import (
	"bytes"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"

	"repro/internal/core"
)

// reqTimeout bounds one request from its due time; a request still running
// then counts as timed out (and failed).
const reqTimeout = 10 * time.Second

// arrival is one scheduled request: when it is due, relative to the
// phase start, and which pool input it carries.
type arrival struct {
	due time.Duration
	in  int
}

// schedule draws an arrival schedule at rate req/s for d from a stream
// derived from the run seed and the phase name, so the same seed gives the
// same schedule and inputs on every commit. Arrivals are evenly spaced with
// a seeded jitter of up to half an interval either way: open-loop like
// Poisson arrivals, without the bursts that make one seed's queueing
// differ from the next on a box this small.
func schedule(seed int64, phase string, rate float64, d time.Duration, pool int) []arrival {
	h := fnv.New64a()
	h.Write([]byte(phase))
	r := rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
	gap := 1 / rate
	var out []arrival
	for i := 0; ; i++ {
		due := time.Duration((float64(i) + 0.5 + r.Float64() - 0.5) * gap * 1e9)
		if due >= d {
			return out
		}
		out = append(out, arrival{due: due, in: r.Intn(pool)})
	}
}

// sample is the benchmark's record of one request.
type sample struct {
	due    time.Duration // scheduled send time, from the phase start
	sent   time.Duration // InvokeWith entry
	ret    time.Duration // InvokeWith return
	done   time.Duration // completion: sent + the engine's own latency
	lat    time.Duration // done - due
	reqID  string
	in     int
	status status
}

type status uint8

const (
	stOK status = iota
	stRefused
	stFailed
	stTimeout
	stWrong
)

// phaseResult is what one open-loop phase produced.
type phaseResult struct {
	rate     float64
	samples  []sample
	counts   [5]int // by status
	attempts int
	aborted  bool  // sending stopped early: the backlog ran away
	pending  []int // PendingInvocations sampled every pendEvery of schedule
	elapsed  time.Duration
}

func (p *phaseResult) ok() int { return p.counts[stOK] }

func (p *phaseResult) failed() int { return p.attempts - p.counts[stOK] }

// latencies returns the sorted latencies of the successful requests.
func (p *phaseResult) latencies() []time.Duration {
	out := make([]time.Duration, 0, len(p.samples))
	for _, s := range p.samples {
		if s.status == stOK {
			out = append(out, s.lat)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// quantile is the linearly interpolated q-quantile of sorted xs.
func quantile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	f := pos - float64(i)
	return xs[i] + time.Duration(f*float64(xs[i+1]-xs[i]))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// setTimerSlack makes the calling OS thread's sleeps precise to a few
// microseconds (Linux PR_SET_TIMERSLACK); the default 50 us slack would be
// charged to every request as generator lag.
func setTimerSlack() {
	const prSetTimerslack = 29
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0) //nolint:errcheck
}

// sleepUntil parks the (OS-thread-locked) generator until t0+due. A raw
// nanosleep is used instead of time.Sleep, whose sub-millisecond sleeps
// round up to the netpoller's 1 ms resolution when the process is idle.
func sleepUntil(t0 time.Time, due time.Duration) {
	d := due - time.Since(t0)
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	syscall.Nanosleep(&ts, nil) //nolint:errcheck // an interrupted sleep only makes the send early-bounded by the loop
}

// pendEvery is how often the generator samples the backlog.
const pendEvery = 20 * time.Millisecond

// backlogGrew reports whether the sampled backlog rose over the phase: the
// mean of its last third is more than 1.5x the first third's, plus a
// slack of 8 requests and 5 ms of arrivals.
// A stable backlog fluctuates around rate x mean latency; an overloaded one
// grows linearly from the start.
func (p *phaseResult) backlogGrew() bool {
	n := len(p.pending) / 3
	if n == 0 {
		return false
	}
	mean := func(xs []int) float64 {
		s := 0
		for _, x := range xs {
			s += x
		}
		return float64(s) / float64(len(xs))
	}
	return mean(p.pending[len(p.pending)-n:]) > 1.5*mean(p.pending[:n])+8+p.rate*0.005
}

// runPhase drives sched open-loop against r: one generator goroutine sends
// every request at its due time (never waiting for completions), one
// collector goroutine waits for completions in send order and checks every
// output. Sending stops early when the backlog passes abortAt (0 = never).
// The phase returns once every sent request has completed or timed out.
func runPhase(r *rig, in *inputs, sched []arrival, rate float64, abortAt int) *phaseResult {
	res := &phaseResult{rate: rate, samples: make([]sample, len(sched))}
	type sent struct {
		i   int
		inv *core.Invocation
	}
	// Sized to the schedule, so the generator never blocks on the collector.
	ch := make(chan sent, len(sched))
	t0 := time.Now()
	genDone := make(chan int, 1)
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		setTimerSlack()
		n := 0
		next := time.Duration(0)
		for i, a := range sched {
			sleepUntil(t0, a.due)
			if a.due >= next {
				next += pendEvery
				p := r.sys.PendingInvocations()
				res.pending = append(res.pending, p)
				if abortAt > 0 && p > abortAt {
					res.aborted = true
					break
				}
			}
			s := &res.samples[i]
			s.due, s.in = a.due, a.in
			s.sent = time.Since(t0)
			inv, err := r.sys.InvokeWith(in.args[a.in], core.InvokeOpts{})
			s.ret = time.Since(t0)
			if err != nil {
				s.status = stRefused
			}
			n++
			ch <- sent{i, inv}
		}
		close(ch)
		genDone <- n
	}()
	colDone := make(chan struct{})
	go func() {
		defer close(colDone)
		for m := range ch {
			s := &res.samples[m.i]
			if m.inv == nil {
				continue
			}
			s.reqID = m.inv.ReqID
			wait := reqTimeout - (time.Since(t0) - s.due)
			if wait < 0 {
				wait = 0
			}
			tm := time.NewTimer(wait)
			select {
			case <-m.inv.Done():
				tm.Stop()
			case <-tm.C:
				s.status = stTimeout
				continue
			}
			if m.inv.Err() != nil {
				s.status = stFailed
				continue
			}
			out, ok := m.inv.OutputBytes("out")
			if !ok || !bytes.Equal(out, in.want[s.in]) {
				s.status = stWrong
				continue
			}
			s.done = s.sent + m.inv.Latency()
			s.lat = s.done - s.due
		}
	}()
	res.attempts = <-genDone
	<-colDone
	res.elapsed = time.Since(t0)
	res.samples = res.samples[:res.attempts]
	for _, s := range res.samples {
		res.counts[s.status]++
	}
	return res
}

// drain waits until the system tracks no request (bounded by reqTimeout).
func drain(r *rig) bool {
	deadline := time.Now().Add(reqTimeout)
	for r.sys.PendingInvocations() > 0 {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// probe is one ladder trial's verdict.
type probe struct {
	step int
	rate float64
	p99  time.Duration
	pass bool
	why  string
}

// staircaseTrials is the number of ladder trials one run makes.
const staircaseTrials = 14

// sustained finds the highest ladder rate whose p99 stays under the limit
// with no failure and no growing backlog, by an up-down staircase: from
// the workload's start step it climbs after a passing trial and descends
// after a failing one, jumping 8 steps at first and halving the jump at
// every reversal down to one step. The result is the median rate of the
// last half of the trials, which straddle the pass/fail boundary; a single
// trial spoiled by a stall moves the estimate by at most one step.
func sustained(r *rig, w *workload, in *inputs, seed int64, perTrial time.Duration, acc *phaseResult) (float64, []probe) {
	var probes []probe
	try := func(n, k int) bool {
		rate := w.ladder.rate(k)
		sched := schedule(seed, "ladder-"+strconv.Itoa(n), rate, perTrial, len(in.pool))
		abortAt := int(math.Ceil(4*rate*w.limit.Seconds())) + 64
		if abortAt > w.maxBacklog {
			abortAt = w.maxBacklog
		}
		res := runPhase(r, in, sched, rate, abortAt)
		drain(r)
		acc.merge(res)
		p := probe{step: k, rate: rate, p99: quantile(res.latencies(), 0.99)}
		switch {
		case res.aborted:
			p.why = "backlog ran away"
		case res.failed() > 0:
			p.why = "failures"
		case res.backlogGrew():
			p.why = "backlog grew"
		case p.p99 > w.limit:
			p.why = "p99 over limit"
		default:
			p.pass = true
		}
		probes = append(probes, p)
		return p.pass
	}
	k, jump, last := w.ladder.start, 8, 0
	for n := 0; n < staircaseTrials; n++ {
		dir := -1
		if try(n, k) {
			dir = 1
		}
		if last != 0 && dir != last && jump > 1 {
			jump /= 2
		}
		last = dir
		k += dir * jump
		if k < 0 {
			k = 0
		}
		if k >= w.ladder.steps {
			k = w.ladder.steps - 1
		}
	}
	var rates []float64
	for _, p := range probes[len(probes)/2:] {
		rates = append(rates, p.rate)
	}
	return median(rates), probes
}

// merge folds o's request accounting into p (for run-wide books).
func (p *phaseResult) merge(o *phaseResult) {
	p.attempts += o.attempts
	for i := range p.counts {
		p.counts[i] += o.counts[i]
	}
}
