package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/transport"
	"repro/internal/workflow"
	"repro/internal/workloads"
)

// fanout is the FOREACH degree of both workflows (wc shards, vid chunks).
const fanout = 4

// workload is one benchmark workload: how to build its system, how to make
// its inputs from a seed, and the fixed load numbers every run uses. The
// rates and the latency limit were derived once from the seed commit's
// figures on a 2-core box and are never recomputed, so a parent and a
// change always see the same offered load.
type workload struct {
	name string
	// lo and hi are the fixed offered rates (req/s) of the latency phases,
	// about 0.3x and 0.6x the seed's sustained_rps.
	lo, hi float64
	// limit is the p99 latency limit of the sustained_rps ladder, about 5x
	// the seed's p50_ms.lo.
	limit time.Duration
	// ladder is the fixed geometric rate ladder sustained_rps is read from.
	ladder ladder
	// maxBacklog stops a ladder probe whose backlog passes it (the step
	// fails), bounding the memory an overloaded step can pin.
	maxBacklog int
	// traceCap bounds the requests of the traced phase, so the span ring
	// (one record per request) stays small.
	traceCap int
	remote   bool
	inputs   func(seed int64) *inputs
	deploy   func(sys *core.System) error
	profile  func() *workloads.Profile
	// wireBytes returns, for one input, the payload bytes the critical
	// path moves across nodes from one container on each edge (entry ->
	// middle, middle -> sink), for pipe.wire_floor_ms.
	wireBytes func(in []byte) (int64, int64)
}

// ladder is rates base*ratio^k for k in [0, steps); the staircase starts
// at step start.
type ladder struct {
	base, ratio  float64
	steps, start int
}

func (l ladder) rate(k int) float64 {
	r := l.base
	for i := 0; i < k; i++ {
		r *= l.ratio
	}
	return r
}

var workloadList = []*workload{
	{
		name: "wc-inproc", lo: 350, hi: 700, limit: 25 * time.Millisecond,
		ladder: ladder{base: 1000, ratio: 1.03, steps: 64, start: 28}, maxBacklog: 20000,
		traceCap: 20000,
		inputs:   wcInputs, deploy: func(s *core.System) error { return workloads.RegisterWordCount(s, fanout) },
		profile:   func() *workloads.Profile { return workloads.WordCount(fanout, 0) },
		wireBytes: wcWireBytes,
	},
	{
		name: "vid-inproc", lo: 20, hi: 36, limit: 330 * time.Millisecond,
		ladder: ladder{base: 20, ratio: 1.03, steps: 64, start: 40}, maxBacklog: 64,
		traceCap: 2000,
		inputs:   vidInputs, deploy: func(s *core.System) error { return workloads.RegisterVideoPipeline(s, fanout) },
		profile:   func() *workloads.Profile { return workloads.VideoFFmpeg(fanout, 0) },
		wireBytes: vidWireBytes,
	},
	{
		name: "wc-tcp", lo: 120, hi: 240, limit: 50 * time.Millisecond,
		ladder: ladder{base: 100, ratio: 1.03, steps: 96, start: 50}, maxBacklog: 4000,
		traceCap: 10000, remote: true,
		inputs: wcInputs, deploy: func(s *core.System) error { return workloads.RegisterWordCount(s, fanout) },
		profile:   func() *workloads.Profile { return workloads.WordCount(fanout, 0) },
		wireBytes: wcWireBytes,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloadList {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloadList))
	for i, w := range workloadList {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// inputs is a workload's seeded input pool with the expected output of
// every entry, computed by the benchmark's own reference code.
type inputs struct {
	pool [][]byte
	want [][]byte
	// args are the Invoke arguments of every pool entry, built once so the
	// generator allocates nothing per request (the engine only reads them).
	args []map[string][]byte
}

func newInputs(key string, pool, want [][]byte) *inputs {
	in := &inputs{pool: pool, want: want}
	for _, p := range pool {
		in.args = append(in.args, map[string][]byte{key: p})
	}
	return in
}

// ---- wc: Zipf-worded texts ----

const (
	wcPool  = 256
	wcVocab = 4096
)

// wcInputs makes wcPool texts of 1-2 KB whose words follow a Zipf law over
// a seeded vocabulary, so every count shard stays under the 16 KB socket
// threshold.
func wcInputs(seed int64) *inputs {
	r := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool, wcVocab)
	vocab := make([]string, 0, wcVocab)
	for len(vocab) < wcVocab {
		b := make([]byte, 2+r.Intn(8))
		for i := range b {
			b[i] = byte('a' + r.Intn(26))
		}
		if w := string(b); !seen[w] {
			seen[w] = true
			vocab = append(vocab, w)
		}
	}
	zipf := rand.NewZipf(r, 1.2, 1, wcVocab-1)
	var pool, want [][]byte
	for i := 0; i < wcPool; i++ {
		target := 1024 + r.Intn(1024)
		var words []string
		size := 0
		for size < target {
			w := vocab[zipf.Uint64()]
			words = append(words, w)
			size += len(w) + 1
		}
		pool = append(pool, []byte(strings.Join(words, " ")))
		want = append(want, wcReference(words))
	}
	return newInputs("start.src", pool, want)
}

// wcReference is the expected wc output: the word counts of the generated
// word list as sorted "word n" lines.
func wcReference(words []string) []byte {
	counts := make(map[string]int)
	for _, w := range words {
		counts[w]++
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b []byte
	for _, k := range keys {
		b = append(b, k...)
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(counts[k]), 10)
		b = append(b, '\n')
	}
	return b
}

// wcWireBytes: the entry container ships the whole text as fanout shards;
// one count container ships its shard's count lines.
func wcWireBytes(text []byte) (int64, int64) {
	words := strings.Fields(string(text))
	var biggest int64
	for i := 0; i < fanout; i++ {
		lo, hi := i*len(words)/fanout, (i+1)*len(words)/fanout
		if n := int64(len(wcReference(words[lo:hi]))); n > biggest {
			biggest = n
		}
	}
	return int64(len(text)), biggest
}

// ---- vid: seeded 1 MiB clips ----

const (
	vidPool = 8
	vidClip = 1 << 20
)

func vidInputs(seed int64) *inputs {
	r := rand.New(rand.NewSource(seed))
	var pool, want [][]byte
	for i := 0; i < vidPool; i++ {
		clip := make([]byte, vidClip)
		r.Read(clip)
		pool = append(pool, clip)
		want = append(want, vidReference(clip))
	}
	return newInputs("split.video", pool, want)
}

// vidReference re-derives the transcode step: each of the fanout chunks is
// delta-encoded pairwise and quantized to 4 bits per delta, and the
// encoded chunks are concatenated in chunk order.
func vidReference(clip []byte) []byte {
	out := make([]byte, 0, len(clip)/2)
	for c := 0; c < fanout; c++ {
		chunk := clip[c*len(clip)/fanout : (c+1)*len(clip)/fanout]
		var prev byte
		for i := 0; i+1 < len(chunk); i += 2 {
			hi := (chunk[i] - prev) >> 4
			lo := (chunk[i+1] - chunk[i]) >> 4
			prev = chunk[i+1]
			out = append(out, hi<<4|lo&0x0f)
		}
	}
	return out
}

func vidWireBytes(clip []byte) (int64, int64) {
	chunk := int64(len(clip) / fanout)
	return int64(len(clip)), chunk / 2
}

// ---- rigs: one deployed system ----

// rig is one deployed workload: the system, its cluster, and for wc-tcp the
// worker processes and wire clients behind it.
type rig struct {
	sys     *core.System
	cl      *cluster.Cluster
	nodes   []*cluster.Node
	workers []*worker
	clients []*tracedTransport // nil entries when not tracing
	raw     []*transport.Client
	stop    func()
	routing cluster.RoutingTable
}

// worker is one cmd/node worker process hosting one node's sink.
type worker struct {
	name   string
	cmd    *exec.Cmd
	addr   string
	exited bool
}

// rigOpts are the set-up choices that differ between the untraced and the
// traced runs.
type rigOpts struct {
	nodeBin  string
	sample   bool // Config.Obs.SampleEvery = 1
	ringSize int
	decorate bool // wrap every wire client in a tracedTransport
}

// dataflowerNode mirrors cmd/dataflower's node defaults.
func dataflowerNode(name string) *cluster.Node {
	n := cluster.NewNode(name, cluster.Options{
		ColdStart: 5 * time.Millisecond,
		KeepAlive: 15 * time.Minute,
		SinkTTL:   time.Minute,
	})
	n.RegisterSinkGauges()
	return n
}

// build deploys w. For wc-tcp it starts two cmd/node workers and builds the
// coordinator side the way cmd/node's coordinator does.
func (w *workload) build(o rigOpts) (*rig, error) {
	r := &rig{cl: cluster.NewCluster(nil)}
	cfg := core.Config{
		Workflow:    w.profile().Workflow,
		Cluster:     r.cl,
		DefaultSpec: cluster.Spec{MemoryMB: 1024},
	}
	if o.sample {
		cfg.Obs = core.ObsConfig{SampleEvery: 1, RingSize: o.ringSize}
	}
	if !w.remote {
		for i := 0; i < 4; i++ {
			n := dataflowerNode(fmt.Sprintf("w%d", i+1))
			if err := r.cl.AddNode(n); err != nil {
				return nil, err
			}
			r.nodes = append(r.nodes, n)
		}
	} else {
		cfg.FaultTolerant = true
		for i := 0; i < 2; i++ {
			wk, err := startWorker(o.nodeBin, fmt.Sprintf("w%d", i+1))
			if err != nil {
				r.close()
				return nil, err
			}
			r.workers = append(r.workers, wk)
			c, err := transport.DialTCP(context.Background(), wk.addr, wk.name, transport.DialOptions{Timeout: 2 * time.Second})
			if err != nil {
				r.close()
				return nil, fmt.Errorf("dial %s: %w", wk.name, err)
			}
			r.raw = append(r.raw, c)
			var dp transport.Transport = c
			var tt *tracedTransport
			if o.decorate {
				tt = &tracedTransport{Client: c}
				dp = tt
			}
			r.clients = append(r.clients, tt)
			n := cluster.NewRemoteNode(wk.name, dp, c.Retains(), cluster.Options{ColdStart: time.Millisecond})
			if err := r.cl.AddNode(n); err != nil {
				r.close()
				return nil, err
			}
			r.nodes = append(r.nodes, n)
		}
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		r.close()
		return nil, err
	}
	r.sys = sys
	if err := w.deploy(sys); err != nil {
		r.close()
		return nil, err
	}
	if w.remote {
		r.stop = r.cl.StartProber(cluster.ProberOptions{Interval: 100 * time.Millisecond, DownAfter: 3})
	}
	r.routing = sys.Routing()
	return r, nil
}

// startWorker launches one cmd/node worker on a loopback port and waits for
// its "worker NAME serving on ADDR" line.
func startWorker(bin, name string) (*worker, error) {
	cmd := exec.Command(bin, "-mode=worker", "-name="+name, "-listen=127.0.0.1:0")
	cmd.Stderr = os.Stderr
	// The worker dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start worker %s: %w", name, err)
	}
	wk := &worker{name: name, cmd: cmd}
	line := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		if sc.Scan() {
			line <- sc.Text()
		} else {
			line <- ""
		}
		// The worker prints nothing after its first line; drain until it exits.
		io.Copy(io.Discard, out) //nolint:errcheck
	}()
	select {
	case l := <-line:
		prefix := "worker " + name + " serving on "
		if !strings.HasPrefix(l, prefix) {
			wk.kill()
			return nil, fmt.Errorf("worker %s: unexpected first line %q", name, l)
		}
		wk.addr = strings.TrimPrefix(l, prefix)
	case <-time.After(10 * time.Second):
		wk.kill()
		return nil, fmt.Errorf("worker %s did not report its address", name)
	}
	return wk, nil
}

// kill stops the worker and reaps it.
func (wk *worker) kill() {
	if wk.exited {
		return
	}
	wk.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck
	done := make(chan struct{})
	go func() {
		wk.cmd.Wait() //nolint:errcheck // a signalled worker exits non-zero by design
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		wk.cmd.Process.Kill() //nolint:errcheck
		<-done
	}
	wk.exited = true
}

// close shuts the system down, stops the prober, closes the wire clients
// and stops the workers.
func (r *rig) close() {
	if r.sys != nil {
		r.sys.Shutdown()
	}
	if r.stop != nil {
		r.stop()
	}
	for _, c := range r.raw {
		c.Close()
	}
	for _, wk := range r.workers {
		wk.kill()
	}
}

// stagesOf names the workflow's three functions in order (entry, middle,
// sink), as the ledger walks them.
func stagesOf(wf *workflow.Workflow) []string {
	order, _ := wf.TopoOrder()
	return order
}
