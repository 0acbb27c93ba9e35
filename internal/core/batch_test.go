package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/wmm"
)

// newUntracedWCSystem is newWCSystem without the full event log.
func newUntracedWCSystem(t testing.TB, nodes int, cfgMut func(*Config)) *System {
	t.Helper()
	sys, _ := newWCSystem(t, nodes, func(cfg *Config) {
		cfg.Trace = nil
		if cfgMut != nil {
			cfgMut(cfg)
		}
	})
	return sys
}

// runWCStorm drives n concurrent wordcount requests and returns the merged
// sink stats after every request completed.
func runWCStorm(t *testing.T, sys *System, n int) wmm.Stats {
	t.Helper()
	return runWC(t, sys, n, true)
}

// runWC drives n wordcount requests — all at once when concurrent, else
// one at a time — checks every output and returns the merged sink stats
// after every request completed.
func runWC(t *testing.T, sys *System, n int, concurrent bool) wmm.Stats {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, n)
	outs := make([][]byte, n)
	run := func(i int) {
		inv, err := sys.Invoke(map[string][]byte{
			"start.src": []byte(strings.Repeat(fmt.Sprintf("w%d ", i), 6)),
		})
		if err != nil {
			errs[i] = err
			return
		}
		if err := inv.Wait(); err != nil {
			errs[i] = err
			return
		}
		outs[i], _ = inv.OutputBytes("out")
	}
	for i := 0; i < n; i++ {
		if !concurrent {
			run(i)
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			run(i)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("req %d: %v", i, errs[i])
		}
		if want := fmt.Sprintf("w%d 6\n", i); string(outs[i]) != want {
			t.Fatalf("req %d out = %q, want %q", i, outs[i], want)
		}
	}
	return sys.SinkStats()
}

// TestBatchedSinkStateEquivalence runs the same requests one at a time (a
// lone request's DLU queue is shallow, so every batch is one task) and as
// a concurrent storm (deep queues, multi-task batches): outputs,
// cumulative sink counters, and post-completion residue must match exactly
// — batch depth may only change how many lock acquisitions and frames the
// same puts cost, never what was put.
func TestBatchedSinkStateEquivalence(t *testing.T) {
	for _, nodes := range []int{1, 3} {
		t.Run(fmt.Sprintf("nodes=%d", nodes), func(t *testing.T) {
			const n = 200
			serial := newUntracedWCSystem(t, nodes, nil)
			serialStats := runWC(t, serial, n, false)
			serial.Shutdown()
			storm := newUntracedWCSystem(t, nodes, nil)
			stormStats := runWCStorm(t, storm, n)
			storm.Shutdown()
			// Peak occupancy depends on goroutine interleaving; every
			// cumulative counter must match exactly.
			serialStats.PeakMemBytes, stormStats.PeakMemBytes = 0, 0
			if serialStats != stormStats {
				t.Fatalf("sink stats diverged:\nserial %+v\nstorm  %+v", serialStats, stormStats)
			}
			if got := storm.PendingInvocations(); got != 0 {
				t.Fatalf("storm left %d pending invocations", got)
			}
		})
	}
}

// TestBatchFlushOnIdle pins the flush-on-idle rule: a lone request never
// waits for peers to fill a batch.
func TestBatchFlushOnIdle(t *testing.T) {
	sys := newUntracedWCSystem(t, 2, nil)
	defer sys.Shutdown()
	start := time.Now()
	inv, err := sys.Invoke(map[string][]byte{"start.src": []byte("x y x")})
	if err != nil {
		t.Fatal(err)
	}
	if err := inv.Wait(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("lone request took %v; batching must flush on idle", elapsed)
	}
	if out, _ := inv.OutputBytes("out"); string(out) != "x 2\ny 1\n" {
		t.Fatal("lone batched request produced wrong output")
	}
}

// TestBatchedShutdownVsDrainStorm races Shutdown against invokers: a
// half-drained batch must be shipped (closed queues still
// deliver buffered tasks), refused late Puts must unwind cleanly, and the
// run must be race-free (the CI race job runs this at -count=2). Requests
// abandoned mid-flight stay open; Shutdown itself guarantees quiescence.
func TestBatchedShutdownVsDrainStorm(t *testing.T) {
	for round := 0; round < 4; round++ {
		sys := newUntracedWCSystem(t, 2, nil)
		var wg sync.WaitGroup
		var invMu sync.Mutex
		var invs []*Invocation
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; ; i++ {
					inv, err := sys.Invoke(map[string][]byte{
						"start.src": []byte(fmt.Sprintf("a%d b%d", g, i)),
					})
					if err != nil {
						return // shutdown observed
					}
					invMu.Lock()
					invs = append(invs, inv)
					invMu.Unlock()
				}
			}(g)
		}
		time.Sleep(time.Duration(round+1) * time.Millisecond)
		sys.Shutdown()
		wg.Wait()
		// Completed requests resolved with the right answer; abandoned ones
		// stay open without hanging the engine (Shutdown already drained bg).
		completed := 0
		for _, inv := range invs {
			select {
			case <-inv.Done():
				completed++
				if err := inv.Err(); err == nil {
					if out, ok := inv.OutputBytes("out"); !ok || len(out) == 0 {
						t.Fatal("completed request lost its output")
					}
				}
			default:
			}
		}
		t.Logf("round %d: %d/%d completed before shutdown", round, completed, len(invs))
	}
}

// TestTracedEngineLogsPerItemEvents documents the Config.Trace contract:
// the full event log runs on the one batched DLU daemon and still records
// one data-sent record per shipped item, one data-arrived record per
// landed item and one triggered record per instance.
func TestTracedEngineLogsPerItemEvents(t *testing.T) {
	sys, log := newWCSystem(t, 2, nil)
	defer sys.Shutdown()
	batchesBefore := obs.Default().Histogram("core_dlu_batch_items").Snapshot().Count
	inv, err := sys.Invoke(map[string][]byte{"start.src": []byte("x y x")})
	if err != nil {
		t.Fatal(err)
	}
	if err := inv.Wait(); err != nil {
		t.Fatal(err)
	}
	if out, _ := inv.OutputBytes("out"); string(out) != "x 2\ny 1\n" {
		t.Fatalf("out = %q", out)
	}
	if got := obs.Default().Histogram("core_dlu_batch_items").Snapshot().Count; got <= batchesBefore {
		t.Fatal("batch-size histogram did not grow: the traced engine must ship through the batched daemon")
	}
	// start -> 3 count shards -> merge -> user: 3+3+1 items sent, the 6
	// sink-bound ones landed, start + 3 counts + merge triggered.
	want := map[trace.Kind]int{trace.DataSent: 7, trace.DataArrived: 6, trace.InstanceTriggered: 5}
	got := map[trace.Kind]int{}
	for _, e := range log.ForRequest(inv.ReqID) {
		got[e.Kind]++
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("%d %s events, want %d (log %v)", got[k], k, n, log.ForRequest(inv.ReqID))
		}
	}
}
