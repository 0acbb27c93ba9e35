package core

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/wmm"
	"repro/internal/workflow"
)

// remoteWCCluster returns a cluster of n nodes whose Wait-Match Memories
// live behind a real TCP transport: one in-process transport.Server per
// node hosting its sink (retaining consumed entries when retain), dialed
// by a transport.Client the cluster node wraps. wrap, when non-nil,
// decorates each node's transport.
func remoteWCCluster(t testing.TB, nodes int, retain bool, wrap func(transport.Transport) transport.Transport) *cluster.Cluster {
	t.Helper()
	cl := cluster.NewCluster(nil)
	for i := 0; i < nodes; i++ {
		name := fmt.Sprintf("w%d", i+1)
		srv := transport.NewServer(transport.ServerOptions{})
		srv.Host(name, wmm.NewSink(wmm.Options{RetainInFlight: retain}))
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		c, err := transport.DialTCP(context.Background(), addr, name, transport.DialOptions{Timeout: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		var dp transport.Transport = c
		if wrap != nil {
			dp = wrap(c)
		}
		if err := cl.AddNode(cluster.NewRemoteNode(name, dp, c.Retains(), cluster.Options{
			ColdStart: time.Millisecond,
		})); err != nil {
			t.Fatal(err)
		}
	}
	return cl
}

// newWCSystemOn deploys the wordcount workflow with fanout count shards on
// cl. Handlers run in this process; only the data plane crosses a socket
// when cl's nodes are remote.
func newWCSystemOn(t testing.TB, cl *cluster.Cluster, fanout int, cfgMut func(*Config)) *System {
	t.Helper()
	wf, err := workflow.ParseDSLString(wcDSL)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Workflow:    wf,
		Cluster:     cl,
		DefaultSpec: cluster.Spec{MemoryMB: 10 * 1024},
	}
	if cfgMut != nil {
		cfgMut(&cfg)
	}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	registerWCFanout(t, sys, fanout)
	return sys
}

// TestTransportEquivalence: a 200-request wordcount storm produces
// byte-identical outputs (runWCStorm checks each one) and identical merged
// sink statistics whether the data plane is the inproc transport or TCP
// framing to per-node sink servers — through the batched consume, on both
// retaining and non-retaining sinks. PeakMemBytes is excluded — it depends
// on scheduling interleavings, not on the op stream.
func TestTransportEquivalence(t *testing.T) {
	const requests = 200
	for _, retain := range []bool{false, true} {
		t.Run(fmt.Sprintf("retain=%v", retain), func(t *testing.T) {
			local, _ := newWCSystemOpts(t, 3, cluster.Options{ColdStart: time.Millisecond, SinkRetain: retain}, nil)
			defer local.Shutdown()
			localStats := runWCStorm(t, local, requests)
			localStats.PeakMemBytes = 0

			remote := newWCSystemOn(t, remoteWCCluster(t, 3, retain, nil), 3, nil)
			defer remote.Shutdown()
			remoteStats := runWCStorm(t, remote, requests)
			remoteStats.PeakMemBytes = 0

			if localStats != remoteStats {
				t.Fatalf("sink stats diverge:\ninproc %+v\ntcp    %+v", localStats, remoteStats)
			}
		})
	}
}

// releaseCounter counts the Release calls one node's data plane receives.
type releaseCounter struct {
	transport.Transport
	n *atomic.Int64
}

func (r releaseCounter) Release(ctx context.Context, reqID string) error {
	r.n.Add(1)
	return r.Transport.Release(ctx, reqID)
}

// TestTeardownReleasesEachNodeOnce: a fault-tolerant request pins every
// function, and teardown sweeps the pinned nodes — each once, even when two
// of the request's functions share it. Retaining sinks make every request
// run the sweep.
func TestTeardownReleasesEachNodeOnce(t *testing.T) {
	var releases atomic.Int64
	cl := remoteWCCluster(t, 2, true, func(c transport.Transport) transport.Transport {
		return releaseCounter{Transport: c, n: &releases}
	})
	sys := newWCSystemOn(t, cl, 3, func(cfg *Config) { cfg.FaultTolerant = true })
	hosts := map[string]int{}
	for _, node := range sys.Routing() {
		hosts[node]++
	}
	if len(hosts) != 2 || len(sys.Routing()) != 3 {
		t.Fatalf("routing %v: want 3 functions on 2 nodes", sys.Routing())
	}
	const n = 10
	runWC(t, sys, n, false)
	sys.Shutdown() // the last teardown's sweep runs on a DLU daemon
	if got, want := releases.Load(), int64(n*len(hosts)); got != want {
		t.Fatalf("%d Release calls for %d requests on %d nodes, want %d", got, n, len(hosts), want)
	}
}

// TestWordCountFrameBudget pins the wire cost of one fault-tolerant
// wordcount request (fanout 4) across two TCP-hosted nodes with retaining
// sinks: one frame per shipment edge (1 start->count batch, up to 4
// count->merge lands), one Consume per instance (4 counts, 1 merge) and
// one Release per node — at most 12 data frames, counted by the servers.
func TestWordCountFrameBudget(t *testing.T) {
	sys := newWCSystemOn(t, remoteWCCluster(t, 2, true, nil), 4, func(cfg *Config) { cfg.FaultTolerant = true })
	frames := obs.Default().Counter("transport_server_frames_total")
	before := frames.Load()
	const n = 5
	for i := 0; i < n; i++ {
		inv, err := sys.Invoke(map[string][]byte{"start.src": []byte(strings.Repeat(fmt.Sprintf("a%d b c d ", i), 3))})
		if err != nil {
			t.Fatal(err)
		}
		if err := inv.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	sys.Shutdown() // quiesce: the last teardown's Releases run on a DLU daemon
	got := frames.Load() - before
	t.Logf("%.1f data frames per request", float64(got)/n)
	if got > 12*n {
		t.Fatalf("%d data frames for %d requests, want at most %d per request", got, n, 12)
	}
}
