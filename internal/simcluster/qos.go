package simcluster

import (
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/qos"
	"repro/internal/sim"
	"repro/internal/trace"
)

// This file is the simulation plane's mirror of the runtime plane's
// admission & QoS plane (core/qos.go). It reuses the same configuration and
// decision types — qos.Config tenant envelopes, the qos.Limiter token
// buckets (driven by virtual time), and the qos.Governor shed logic — and
// substitutes sim-native machinery only where the runtime plane blocks
// goroutines: the weighted-fair queue parks request processes on sim.Events
// and grants them in the same stride-scheduled virtual-finish order as
// qos.FairQueue. Two deliberate differences, both forced by the simulation
// model:
//
//   - the unit of fair scheduling is the request, not the function
//     instance (the sim's dispatchers own instance-level scheduling);
//   - the governor is evaluated at queue transitions (admission attempts
//     and releases) instead of on a timer: a self-rescheduling tick would
//     keep the event horizon open forever, and between transitions none of
//     its inputs change.
//
// Every QoS code path is gated on Config.QoS being non-nil, so a QoS-less
// run is event-for-event identical to the classic engine.

// TenantResult is one tenant's slice of a Result.
type TenantResult struct {
	// Issued counts arrivals attributed to the tenant; Admitted the ones
	// that entered execution (immediately or after queueing); Throttled the
	// token-bucket refusals; Shed the governor refusals; Abandoned the
	// requests that timed out while still parked in the fair queue (never
	// admitted). Issued = Admitted + Throttled + Shed + Abandoned.
	Issued    int64
	Admitted  int64
	Throttled int64
	Shed      int64
	Abandoned int64
	// Completed/Failed split the admitted requests' outcomes.
	Completed int64
	Failed    int64
	// Latencies samples the tenant's end-to-end latencies (queueing
	// included); GoodputRPM is completed requests per simulated minute.
	Latencies  *metrics.Sample
	GoodputRPM float64
}

// simTenant is one tenant's live QoS state.
type simTenant struct {
	name     string
	spec     qos.Tenant
	vfinish  float64
	inflight int
	waitq    []*qosWaiter

	issued, admitted, throttled, shed, abandoned int64
	completed, failed                            int64
	lat                                          *metrics.Sample
}

// qosWaiter parks one request process until the fair queue grants it.
type qosWaiter struct {
	req     *request
	ev      *sim.Event
	granted bool
}

// simQoS is the assembled plane (nil on the Sim when Config.QoS is).
type simQoS struct {
	cfg      qos.Config
	limiter  *qos.Limiter
	governor *qos.Governor
	tenants  map[string]*simTenant
	order    []string // deterministic iteration for dispatch/results
	capacity int
	inflight int
	waiting  int
	vtime    float64
}

// defaultSimQoSCapacity derives the request-level admission capacity from
// the worker count when Config.QoS leaves Capacity zero.
func defaultSimQoSCapacity(workers int) int { return 8 * workers }

// armQoS assembles the plane (called from New).
func (s *Sim) armQoS() {
	if s.cfg.QoS == nil {
		return
	}
	cfg := s.cfg.QoS.WithDefaults(defaultSimQoSCapacity(s.cfg.Workers))
	s.qos = &simQoS{
		cfg:      cfg,
		tenants:  make(map[string]*simTenant),
		capacity: cfg.Capacity,
	}
	s.qos.limiter = qos.NewLimiter(&s.qos.cfg)
	s.qos.governor = qos.NewGovernor(&s.qos.cfg)
}

// tenantOf resolves (or creates) a tenant's state.
func (q *simQoS) tenantOf(name string) *simTenant {
	t := q.tenants[name]
	if t == nil {
		t = &simTenant{name: name, spec: q.cfg.TenantSpec(name), lat: metrics.NewSample()}
		q.tenants[name] = t
		q.order = append(q.order, name)
		sort.Strings(q.order)
	}
	return t
}

// qosGovern refreshes the governor's shed set from the current overload
// signals: worst Eq. 1 pressure estimate, sink occupancy, and the fair
// queue's depth. Called at every queue transition. A negative
// GovernorInterval disables the governor — the same admission-only
// contract the runtime plane honours — leaving the shed set empty forever.
func (s *Sim) qosGovern() {
	q := s.qos
	if q.cfg.GovernorInterval < 0 {
		return
	}
	tenants := make(map[string]qos.TenantLoad, len(q.tenants))
	for name, t := range q.tenants {
		if t.inflight == 0 && len(t.waitq) == 0 {
			continue
		}
		tenants[name] = qos.TenantLoad{Waiting: len(t.waitq), InFlight: t.inflight, Weight: t.spec.Weight}
	}
	var resident int64
	for _, n := range s.nodes {
		resident += n.sink.MemBytes() // incl. replay-retained entries
	}
	q.governor.Update(qos.Sample{
		At:            s.env.Now(),
		Pressure:      s.maxTransferPressure(),
		ResidentBytes: resident,
		QueueDepth:    q.waiting,
		InFlight:      q.inflight,
		Capacity:      q.capacity,
		Tenants:       tenants,
	})
}

// maxTransferPressure is the sim's Eq. 1 estimate: for each function, the
// average declared output size against the container bandwidth, minus the
// observed FLU average — the same α·Size/Bw − T_FLU the runtime governor
// samples from its put-size averages.
func (s *Sim) maxTransferPressure() time.Duration {
	bw := s.cfg.containerBps()
	var max time.Duration
	for fn, prof := range s.profOf {
		f, ok := prof.Workflow.Function(fn)
		if !ok || len(f.Outputs) == 0 {
			continue
		}
		var total int64
		var n int64
		for _, o := range f.Outputs {
			if o.Name == "" {
				continue
			}
			total += prof.SizeOf(fn, o.Name)
			n++
		}
		if n == 0 {
			continue
		}
		p := cluster.TransferPressure(s.cfg.Alpha, float64(total)/float64(n), bw, s.fluAvg[fn].avg())
		if p > max {
			max = p
		}
	}
	return max
}

// qosAdmit runs the admission gates for one request; reports whether the
// request may proceed. A refusal (or a request that failed while parked)
// has its done event triggered and never touches a container or a NIC. May
// block the calling process in the weighted-fair queue.
func (s *Sim) qosAdmit(p *sim.Proc, req *request) bool {
	q := s.qos
	t := q.tenantOf(req.tenant)
	t.issued++
	s.qosGovern()
	if ra, shed := q.governor.Shedding(req.tenant); shed {
		t.shed++
		s.traceEvent(trace.Shed, req, "", 0, req.tenant+": shed")
		req.done.Trigger(&qos.ErrOverloaded{Tenant: req.tenant, Cause: qos.CauseShed, RetryAfter: ra})
		return false
	}
	if ok, ra := q.limiter.Allow(s.env.Now(), req.tenant); !ok {
		t.throttled++
		s.traceEvent(trace.Shed, req, "", 0, req.tenant+": admission")
		req.done.Trigger(&qos.ErrOverloaded{Tenant: req.tenant, Cause: qos.CauseAdmission, RetryAfter: ra})
		return false
	}
	if q.inflight < q.capacity &&
		(t.spec.MaxInFlight <= 0 || t.inflight < t.spec.MaxInFlight) &&
		len(t.waitq) == 0 {
		q.grant(t)
		t.admitted++
		req.qosHeld = true
		return true
	}
	w := &qosWaiter{req: req, ev: sim.NewEvent(s.env)}
	t.waitq = append(t.waitq, w)
	q.waiting++
	p.Wait(w.ev)
	if !w.granted {
		// Timed out while parked: qosAbandon (or a defensive dispatch skip)
		// woke us without a slot; done is already triggered.
		return false
	}
	t.admitted++
	return true
}

// grant hands t one slot and advances the stride-scheduling clock, exactly
// as qos.FairQueue.grantLocked does.
func (q *simQoS) grant(t *simTenant) {
	q.inflight++
	t.inflight++
	start := t.vfinish
	if start < q.vtime {
		start = q.vtime
	}
	t.vfinish = start + 1/float64(t.spec.Weight)
	q.vtime = start
}

// qosRelease returns a request's slot (no-op unless it holds one) and
// dispatches parked requests.
func (s *Sim) qosRelease(req *request) {
	if s.qos == nil || !req.qosHeld {
		return
	}
	req.qosHeld = false
	t := s.qos.tenantOf(req.tenant)
	t.inflight--
	s.qos.inflight--
	s.qosGovern()
	s.qosDispatch()
}

// qosDispatch grants free slots in virtual-finish order (deterministic name
// tie-break via the sorted tenant order), skipping tenants at their cap.
// Waiters whose request already failed are woken ungranted without
// consuming a slot.
func (s *Sim) qosDispatch() {
	q := s.qos
	for q.inflight < q.capacity {
		var best *simTenant
		for _, name := range q.order {
			t := q.tenants[name]
			if len(t.waitq) == 0 || (t.spec.MaxInFlight > 0 && t.inflight >= t.spec.MaxInFlight) {
				continue
			}
			if best == nil || t.vfinish < best.vfinish {
				best = t
			}
		}
		if best == nil {
			return
		}
		w := best.waitq[0]
		best.waitq[0] = nil
		best.waitq = best.waitq[1:]
		q.waiting--
		if w.req.failed || w.req.done.Triggered() {
			w.ev.Trigger(nil)
			continue
		}
		q.grant(best)
		w.granted = true
		w.req.qosHeld = true
		w.ev.Trigger(nil)
	}
}

// qosComplete folds a finished request into its tenant's accounting.
func (s *Sim) qosComplete(req *request, lat time.Duration) {
	if s.qos == nil || req.tenant == "" {
		return
	}
	t := s.qos.tenantOf(req.tenant)
	t.completed++
	t.lat.AddDuration(lat)
}

// qosFail folds a failed (timed-out) request into its tenant's accounting.
// Only admitted requests (still holding their slot at this point — fail
// releases it afterwards) count as Failed; a request that timed out while
// parked was already accounted Abandoned by qosAbandon.
func (s *Sim) qosFail(req *request) {
	if s.qos == nil || req.tenant == "" || !req.qosHeld {
		return
	}
	s.qos.tenantOf(req.tenant).failed++
}

// qosAbandon removes a failed request's parked waiter, if any: dead demand
// must not keep inflating the governor's queue-depth signal (a stale
// waiter would otherwise sit in the sample until some release dispatched
// past it). The parked process wakes ungranted.
func (s *Sim) qosAbandon(req *request) {
	if s.qos == nil || req.tenant == "" {
		return
	}
	t := s.qos.tenants[req.tenant]
	if t == nil {
		return
	}
	for i, w := range t.waitq {
		if w.req == req {
			copy(t.waitq[i:], t.waitq[i+1:])
			t.waitq[len(t.waitq)-1] = nil
			t.waitq = t.waitq[:len(t.waitq)-1]
			s.qos.waiting--
			t.abandoned++
			w.ev.Trigger(nil)
			return
		}
	}
}

// tenantResults assembles the per-tenant Result slice.
func (s *Sim) tenantResults(horizon time.Duration) map[string]*TenantResult {
	if s.qos == nil || len(s.qos.tenants) == 0 {
		return nil
	}
	out := make(map[string]*TenantResult, len(s.qos.tenants))
	for _, name := range s.qos.order {
		t := s.qos.tenants[name]
		tr := &TenantResult{
			Issued:    t.issued,
			Admitted:  t.admitted,
			Throttled: t.throttled,
			Shed:      t.shed,
			Abandoned: t.abandoned,
			Completed: t.completed,
			Failed:    t.failed,
			Latencies: t.lat,
		}
		if horizon > 0 {
			tr.GoodputRPM = float64(t.completed) / horizon.Minutes()
		}
		out[name] = tr
	}
	return out
}
