// Command perfbench is the repository's benchmark. It drives the runtime
// plane (core + cluster + transport + wmm + pipe, with the real workload
// handlers) with an open-loop arrival schedule, checks every output against
// its own reference, balances the books after every deployment, and prints
// one JSON result as its last line.
//
// Run it from the repository root through perfbench/run.sh, which builds
// this command and cmd/node:
//
//	bash perfbench/run.sh --workload wc-inproc --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --smoke
//
// With -trace 0 it deploys the workload five times (set-up time), runs ten
// rounds of a low and a high fixed rate and an up-down staircase over a
// fixed rate ladder, prints latency, peak rate and the failure share, and
// reports set-up time, the share of requests that succeeded, CPU time per
// request and peak RSS as its result. With -trace 1 it runs the workload at
// its low rate twice, untraced and with every request's spans recorded,
// and reports the per-layer metrics and where one request's time goes.
// Each workload runs in its own process: the metric registry and RSS are
// process-wide.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

func main() {
	wname := flag.String("workload", "", "workload: wc-inproc, vid-inproc or wc-tcp")
	seed := flag.Int64("seed", 1, "seed of the arrival schedules and the inputs")
	seconds := flag.Int("seconds", 30, "measured seconds of one run")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	nodeBin := flag.String("node", ".bench_build/dfnode", "cmd/node binary (wc-tcp workers)")
	smoke := flag.Bool("smoke", false, "run every workload for about a second, both modes, and check the printed metrics against -manifest")
	manifest := flag.String("manifest", "BENCHMARK.json", "benchmark manifest (smoke mode)")
	flag.Parse()

	if *smoke {
		if err := runSmoke(*manifest, *nodeBin, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	w, err := workloadByName(*wname)
	if err == nil && (*seconds < 1 || (*traced != 0 && *traced != 1)) {
		err = fmt.Errorf("need -seconds >= 1 and -trace 0 or 1")
	}
	if err == nil && w.remote {
		_, err = os.Stat(*nodeBin)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	printHeader(w, *seed)
	tot0, st0 := stealTicks()
	var res *result
	if *traced == 1 {
		res, err = runTraced(w, *seed, time.Duration(*seconds)*time.Second, *nodeBin)
	} else {
		res, err = runE2E(w, *seed, time.Duration(*seconds)*time.Second, *nodeBin)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if tot1, st1 := stealTicks(); tot1 > tot0 {
		fmt.Printf("box: %.1f%% of CPU time stolen by the host during the run\n", 100*float64(st1-st0)/float64(tot1-tot0))
	}
	for _, v := range res.violations {
		fmt.Println("CHECK FAILED:", v)
	}
	b, _ := json.Marshal(res.out())
	fmt.Println(string(b))
	if !res.correct() {
		os.Exit(1)
	}
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome: the request books, every check that
// failed, and the metrics.
type result struct {
	books      phaseResult
	violations []string
	metrics    map[string]metric
}

func (r *result) correct() bool { return len(r.violations) == 0 }

func (r *result) set(name, unit string, v float64) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.metrics[name] = metric{v, unit}
}

func (r *result) fail(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

func (r *result) out() any {
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), r.books.attempts, r.books.failed(), r.metrics}
}

// account folds a phase into the books and flags wrong outputs.
func (r *result) account(phase string, p *phaseResult) {
	r.books.merge(p)
	if n := p.counts[stWrong]; n > 0 {
		r.fail("%s: %d outputs differ from the reference", phase, n)
	}
}

// setupRuns is how many times a run deploys its workload; setup_s is the
// median.
const setupRuns = 5

// warmFor is how long the set-up's warm-up offers the hi rate, open loop:
// enough to start the containers the timed phases need, and a fixed span,
// so set-up time measures the deployment rather than how fast the box
// happens to drain a fixed batch.
const warmFor = 250 * time.Millisecond

// deploy builds the workload and warms it; it returns the rig, the
// goroutine count before the build and the set-up time.
func deploy(w *workload, in *inputs, o rigOpts, seed int64, res *result) (*rig, int, time.Duration, error) {
	base := runtime.NumGoroutine()
	t0 := time.Now()
	r, err := w.build(o)
	if err != nil {
		return nil, 0, 0, err
	}
	wu := runPhase(r, in, schedule(seed, "warm-up", w.hi, warmFor, len(in.pool)), w.hi, 0)
	d := time.Since(t0)
	res.account("warm-up", wu)
	if f := wu.failed(); f > 0 {
		res.fail("warm-up: %d of %d requests failed", f, wu.attempts)
	}
	return r, base, d, nil
}

// teardown drains r, checks the books from outside and shuts r down.
func teardown(r *rig, base int, res *result) {
	if !drain(r) {
		res.fail("drain: %d requests still pending after %v", r.sys.PendingInvocations(), reqTimeout)
	}
	if n := r.sys.PendingInvocations(); n != 0 {
		res.fail("books: PendingInvocations()=%d after drain", n)
	}
	for _, n := range r.nodes {
		if n.Remote() {
			n.Ping(bgctx) //nolint:errcheck // refreshes the piggybacked resident-bytes gauge; a dead worker fails below
		}
		if b := n.SinkMemBytes(); b != 0 {
			res.fail("books: node %s holds %d sink bytes after drain", n.Name, b)
		}
	}
	r.close()
	for _, wk := range r.workers {
		if wk.cmd.ProcessState == nil {
			res.fail("books: worker %s not reaped", wk.name)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > base {
		res.fail("books: %d goroutines after shutdown, %d before NewSystem", g, base)
	}
}

// checkBooks verifies that every attempted request ended exactly once.
func checkBooks(res *result) {
	b := &res.books
	sum := 0
	for _, c := range b.counts {
		sum += c
	}
	if sum != b.attempts {
		res.fail("books: attempted %d != completed %d + failed %d + refused %d",
			b.attempts, b.counts[stOK], b.counts[stFailed]+b.counts[stTimeout]+b.counts[stWrong], b.counts[stRefused])
	}
	fmt.Printf("books: attempted=%d completed=%d failed=%d refused=%d timed_out=%d wrong=%d\n",
		b.attempts, b.counts[stOK], b.counts[stFailed], b.counts[stRefused], b.counts[stTimeout], b.counts[stWrong])
}

// runE2E is the untraced run: setupRuns deployments (the last one is
// measured), then the lo and hi latency phases and the sustained-rate
// ladder, sharing the measured time 1:1:2.
func runE2E(w *workload, seed int64, total time.Duration, nodeBin string) (*result, error) {
	res := &result{}
	in := w.inputs(seed)
	var setups []float64
	var r *rig
	var base int
	for k := 0; k < setupRuns; k++ {
		rr, b, d, err := deploy(w, in, rigOpts{nodeBin: nodeBin}, seed+int64(k), res)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if k < setupRuns-1 {
			teardown(rr, b, res)
			continue
		}
		r, base = rr, b
	}
	printRouting(r)

	// The latency phases alternate lo and hi in short rounds; each metric
	// is the median over the rounds, so a stall of the box spoils one
	// round, not the run.
	var los, his []*phaseResult
	var rss []float64
	var cpu int64
	var hiOK int
	for k := 0; k < rounds; k++ {
		lo := runPhase(r, in, schedule(seed, "lo-"+strconv.Itoa(k), w.lo, total/4/rounds, len(in.pool)), w.lo, 0)
		drain(r)
		res.account("lo", lo)
		resetHWM(r)
		c0 := cpuNow(r)
		hi := runPhase(r, in, schedule(seed, "hi-"+strconv.Itoa(k), w.hi, total/4/rounds, len(in.pool)), w.hi, 0)
		cpu += cpuNow(r) - c0
		hiOK += hi.ok()
		rss = append(rss, rssPeakMB(r))
		drain(r)
		res.account("hi", hi)
		los, his = append(los, lo), append(his, hi)
	}
	for _, p := range append(los, his...) {
		if p.failed() > 0 {
			res.fail("%.0f req/s phase: %d of %d requests failed", p.rate, p.failed(), p.attempts)
		}
	}
	ladderRes := &phaseResult{}
	sus, probes := sustained(r, w, in, seed, total/2/staircaseTrials, ladderRes)
	res.account("ladder", ladderRes)
	teardown(r, base, res)
	checkBooks(res)

	res.set("setup_s", "s", median(setups))
	res.set("ok_frac", "ratio", float64(res.books.ok())/float64(res.books.attempts))
	res.set("cpu_ms_per_req", "ms", float64(cpu)/1e6/float64(hiOK))
	res.set("rss_peak_mb", "MB", median(rss))

	fmt.Printf("set-up runs (s): %.4f\n", setups)
	for _, p := range append(los, his...) {
		l := p.latencies()
		fmt.Printf("phase %7.1f req/s: %d requests in %v, p50 %.3f ms, p99 %.3f ms (%d samples beyond p99), lag p99 %.3f ms\n",
			p.rate, p.attempts, p.elapsed.Round(time.Millisecond), ms(quantile(l, 0.5)), ms(quantile(l, 0.99)), len(l)/100, ms(lagP99(p)))
	}
	for _, p := range probes {
		verdict := "pass"
		if !p.pass {
			verdict = "fail: " + p.why
		}
		fmt.Printf("ladder step %2d %8.1f req/s: p99 %8.3f ms  %s\n", p.step, p.rate, ms(p.p99), verdict)
	}
	// Latency and peak rate are measured and printed on every run but are
	// not in the result: on a shared 2-vCPU VM the host's CPU contention
	// moves them by more than any useful bound between runs of the same
	// code (the box's capacity swung 2.5x), while CPU time per request,
	// peak RSS and set-up time stay steady.
	fmt.Println("measured, not gated:")
	fmt.Printf("  %-32s %14.4f req/s\n", "sustained_rps", sus)
	fmt.Printf("  %-32s %14.4f ms\n", "p50_ms.lo", roundsMs(los, 0.5))
	fmt.Printf("  %-32s %14.4f ms\n", "p99_ms.lo", roundsMs(los, 0.99))
	fmt.Printf("  %-32s %14.4f ms\n", "p50_ms.hi", roundsMs(his, 0.5))
	fmt.Printf("  %-32s %14.4f ms\n", "p99_ms.hi", roundsMs(his, 0.99))
	fmt.Printf("  %-32s %14.6f ratio\n", "fail_frac", 1-res.metrics["ok_frac"].Value)
	fmt.Println("gated:")
	printMetrics(res)
	return res, nil
}

// rounds is how many lo/hi round pairs the untraced run makes.
const rounds = 10

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

// roundsMs is the median over the rounds of each round's q-quantile, in ms.
func roundsMs(ps []*phaseResult, q float64) float64 {
	v := make([]float64, len(ps))
	for i, p := range ps {
		v[i] = ms(quantile(p.latencies(), q))
	}
	return median(v)
}

func lagP99(p *phaseResult) time.Duration {
	lags := make([]time.Duration, 0, len(p.samples))
	for _, s := range p.samples {
		lags = append(lags, s.sent-s.due)
	}
	sort.Slice(lags, func(i, j int) bool { return lags[i] < lags[j] })
	return quantile(lags, 0.99)
}

func printRouting(r *rig) {
	var fns []string
	for fn := range r.routing {
		fns = append(fns, fn)
	}
	sort.Strings(fns)
	parts := make([]string, len(fns))
	for i, fn := range fns {
		parts[i] = fn + "->" + r.routing[fn]
	}
	fmt.Println("routing:", strings.Join(parts, " "))
}

func printMetrics(res *result) {
	var names []string
	for n := range res.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.metrics[n]
		fmt.Printf("  %-32s %14.4f %s\n", n, m.Value, m.Unit)
	}
}

// runTraced is the per-layer run at the lo rate: first untraced (reference
// p50, allocations, then a hi phase for the container count), then on a
// fresh deployment with every request sampled into the span ring and, on
// wc-tcp, every wire call timed.
func runTraced(w *workload, seed int64, total time.Duration, nodeBin string) (*result, error) {
	res := &result{}
	in := w.inputs(seed)
	stages := stagesOf(w.profile().Workflow)
	loDur := total * 3 / 10
	if most := time.Duration(float64(w.traceCap) / w.lo * 1e9); loDur > most {
		loDur = most
	}

	// Untraced reference.
	r, base, _, err := deploy(w, in, rigOpts{nodeBin: nodeBin}, seed, res)
	if err != nil {
		return nil, err
	}
	printRouting(r)
	a0 := read(r, true)
	ref := runPhase(r, in, schedule(seed, "lo", w.lo, loDur, len(in.pool)), w.lo, 0)
	a1 := read(r, true)
	drain(r)
	res.account("untraced lo", ref)
	hi := runPhase(r, in, schedule(seed, "hi", w.hi, total/5, len(in.pool)), w.hi, 0)
	drain(r)
	a2 := read(r, false)
	res.account("untraced hi", hi)
	containers := 0
	for _, n := range r.nodes {
		containers += n.Containers("")
	}
	teardown(r, base, res)

	// Traced run.
	ring := int(w.hi*warmFor.Seconds()) + w.traceCap*2 + 1024
	r, base, _, err = deploy(w, in, rigOpts{nodeBin: nodeBin, sample: true, ringSize: ring, decorate: w.remote}, seed, res)
	if err != nil {
		return nil, err
	}
	for _, c := range r.clients {
		c.on.Store(true)
	}
	b0 := read(r, false)
	tr := runPhase(r, in, schedule(seed, "lo", w.lo, loDur, len(in.pool)), w.lo, 0)
	b1 := read(r, false)
	for _, c := range r.clients {
		c.on.Store(false)
	}
	drain(r)
	res.account("traced lo", tr)
	g := obs.Default().Ring()
	if ev := g.Evicted(); ev != 0 {
		res.fail("span ring evicted %d records; the ledger would be partial", ev)
	}
	spans := g.Snapshot()
	routing := r.routing
	teardown(r, base, res)
	checkBooks(res)
	for _, p := range []*phaseResult{ref, hi, tr} {
		if p.failed() > 0 {
			res.fail("%.0f req/s phase: %d of %d requests failed", p.rate, p.failed(), p.attempts)
		}
	}

	ok := float64(tr.ok())
	st := analyzeSpans(tr, spans, stages)
	if st.matched < tr.ok() {
		res.fail("only %d of %d traced requests have a span record", st.matched, tr.ok())
	}
	trL := tr.latencies()
	lags := make([]time.Duration, 0, len(tr.samples))
	invokes := make([]time.Duration, 0, len(tr.samples))
	for _, s := range tr.samples {
		lags = append(lags, s.sent-s.due)
		invokes = append(invokes, s.ret-s.sent)
	}
	sort.Slice(lags, func(i, j int) bool { return lags[i] < lags[j] })
	sort.Slice(invokes, func(i, j int) bool { return invokes[i] < invokes[j] })

	res.set("loadgen.lag_ms.p99", "ms", ms(quantile(lags, 0.99)))
	res.set("core.invoke_us.p50", "us", us(quantile(invokes, 0.5)))
	res.set("core.queue_us.p50", "us", us(quantile(st.queue, 0.5)))
	res.set("core.queue_us.p99", "us", us(quantile(st.queue, 0.99)))
	res.set("core.exec_us.p50", "us", us(quantile(st.exec, 0.5)))
	res.set("core.ship_us.p50", "us", us(quantile(st.ship, 0.5)))
	res.set("core.ship_us.p99", "us", us(quantile(st.ship, 0.99)))
	res.set("core.trigger_gap_us.p50", "us", us(quantile(st.gap, 0.5)))
	res.set("core.teardown_us.p50", "us", histQuantile(histDelta(b0, b1, "core_teardown_latency_ns"), 0.5)/1e3)
	res.set("core.unattributed_us.p50", "us", us(quantile(st.unattr, 0.5)))
	bh := histDelta(b0, b1, "core_dlu_batch_items")
	res.set("core.dlu_batch_items.mean", "items", float64(bh.Sum)/float64(bh.Count))
	res.set("core.allocs_per_req", "count", float64(a1.mallocs-a0.mallocs)/float64(ref.ok()))
	res.set("core.alloc_bytes_per_req", "B", float64(a1.allocB-a0.allocB)/float64(ref.ok()))
	res.set("cluster.cold_starts", "count", float64(counterDelta(a0, a2, "cluster_cold_starts_total")+counterDelta(b0, b1, "cluster_cold_starts_total")))
	res.set("cluster.containers", "count", float64(containers))

	var calls int
	var opDur [numOps][]time.Duration
	for _, c := range r.clients {
		for op := range c.dur {
			calls += len(c.dur[op])
			opDur[op] = append(opDur[op], c.dur[op]...)
		}
	}
	for op := range opDur {
		sort.Slice(opDur[op], func(i, j int) bool { return opDur[op][i] < opDur[op][j] })
		res.set("transport."+opNames[op]+"_us.p50", "us", us(quantile(opDur[op], 0.5)))
	}
	res.set("transport.land_us.p99", "us", us(quantile(opDur[opLand], 0.99)))
	res.set("transport.rpc_per_req", "count", float64(calls)/ok)
	res.set("transport.frames_per_req", "count", float64(counterDelta(b0, b1, "transport_frames_sent_total"))/ok)
	res.set("transport.bytes_per_req", "B", float64(counterDelta(b0, b1, "transport_bytes_sent_total"))/ok)
	res.set("transport.retries", "count", float64(counterDelta(a0, a2, "transport_retries_total")+counterDelta(b0, b1, "transport_retries_total")))
	res.set("transport.timeouts", "count", float64(counterDelta(a0, a2, "transport_timeouts_total")+counterDelta(b0, b1, "transport_timeouts_total")))

	hits := b1.sink.MemHits - b0.sink.MemHits
	looks := hits + b1.sink.DiskHits - b0.sink.DiskHits + b1.sink.Misses - b0.sink.Misses
	res.set("wmm.puts_per_req", "count", float64(b1.sink.Puts-b0.sink.Puts)/ok)
	res.set("wmm.hit_ratio", "ratio", float64(hits)/float64(looks))
	res.set("wmm.peak_mem_mb", "MB", float64(b1.sink.PeakMemBytes)/(1<<20))
	res.set("wmm.mb_s_per_req", "MB.s", (b1.memMBs-b0.memMBs)/ok)
	res.set("pipe.wire_floor_ms", "ms", wireFloorMs(w, in, tr, routing, stages))

	// Where one request's time goes.
	refL := ref.latencies()
	fmt.Printf("traced p50 %.3f ms vs untraced p50 %.3f ms: tracing overhead %+.1f%%\n",
		ms(quantile(trL, 0.5)), ms(quantile(refL, 0.5)), 100*(float64(quantile(trL, 0.5))/float64(quantile(refL, 0.5))-1))
	if st.ledgerN > 0 {
		fmt.Printf("where one request's time goes (%d traced requests between p45 and p55, mean %.1f us):\n",
			st.ledgerN, us(st.ledgerLat)/float64(st.ledgerN))
		for i, name := range ledgerNames {
			fmt.Printf("  %-14s %9.1f us %6.1f%%\n", name, us(st.ledger[i])/float64(st.ledgerN), 100*float64(st.ledger[i])/float64(st.ledgerLat))
		}
		fmt.Printf("  %-14s %9.1f us %6.1f%%\n", "unattributed", us(st.ledgerUn)/float64(st.ledgerN), 100*float64(st.ledgerUn)/float64(st.ledgerLat))
	}
	printMetrics(res)
	return res, nil
}

// wireFloorMs is the modelled wire time of the critical path: the bytes one
// container sends across nodes on each edge, at the container's bandwidth.
func wireFloorMs(w *workload, in *inputs, p *phaseResult, routing map[string]string, stages []string) float64 {
	bw := specBandwidth()
	var sum float64
	n := 0
	for _, s := range p.samples {
		if s.status != stOK {
			continue
		}
		e1, e2 := w.wireBytes(in.pool[s.in])
		var b int64
		if routing[stages[0]] != routing[stages[1]] {
			b += e1
		}
		if routing[stages[1]] != routing[stages[2]] {
			b += e2
		}
		sum += float64(b) / bw * 1e3
		n++
	}
	return sum / float64(n)
}

// runSmoke runs every workload for about a second in both modes, each in
// its own process, and checks that each prints every metric the manifest
// names with the manifest's unit.
func runSmoke(manifest, nodeBin string, seed int64) error {
	raw, err := os.ReadFile(manifest)
	if err != nil {
		return err
	}
	var m struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		return fmt.Errorf("%s: %w", manifest, err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var problems []string
	for _, wl := range m.Workloads {
		for mode, want := range [][]struct{ Name, Unit string }{m.EndToEnd, m.PerLayer} {
			cmd := exec.Command(self, "-workload", wl.Name, "-seed", fmt.Sprint(seed), "-seconds", "1",
				"-trace", fmt.Sprint(mode), "-node", nodeBin)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				problems = append(problems, fmt.Sprintf("%s trace=%d: %v", wl.Name, mode, err))
				continue
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var got struct {
				Correct   bool              `json:"correct"`
				Attempted int               `json:"attempted"`
				Metrics   map[string]metric `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
				problems = append(problems, fmt.Sprintf("%s trace=%d: last line is not the result: %v", wl.Name, mode, err))
				continue
			}
			if !got.Correct || got.Attempted < 1 {
				problems = append(problems, fmt.Sprintf("%s trace=%d: correct=%v attempted=%d", wl.Name, mode, got.Correct, got.Attempted))
			}
			for _, x := range want {
				if g, ok := got.Metrics[x.Name]; !ok {
					problems = append(problems, fmt.Sprintf("%s trace=%d: metric %s missing", wl.Name, mode, x.Name))
				} else if g.Unit != x.Unit {
					problems = append(problems, fmt.Sprintf("%s trace=%d: metric %s has unit %q, manifest says %q", wl.Name, mode, x.Name, g.Unit, x.Unit))
				}
			}
			if len(got.Metrics) != len(want) {
				problems = append(problems, fmt.Sprintf("%s trace=%d: %d metrics printed, manifest names %d", wl.Name, mode, len(got.Metrics), len(want)))
			}
			fmt.Printf("smoke %s trace=%d: %d metrics\n", wl.Name, mode, len(got.Metrics))
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("smoke: %s", strings.Join(problems, "; "))
	}
	return nil
}
