package core

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestBatchedEquivalenceWithSampling pins the batching/observability
// contract from the ObsConfig docs: sampled request tracing rides the
// batched DLU daemon without changing what it ships. The sampled storm must
// produce identical sink state to an unsampled one, the batched daemon must
// actually have run (the DLU batch-size histogram grows), and the span ring
// must hold sampled requests.
func TestBatchedEquivalenceWithSampling(t *testing.T) {
	const n = 200
	plain := newUntracedWCSystem(t, 3, nil)
	plainStats := runWCStorm(t, plain, n)
	plain.Shutdown()

	batchesBefore := obs.Default().Histogram("core_dlu_batch_items").Snapshot().Count
	sampled := newUntracedWCSystem(t, 3, func(cfg *Config) { cfg.Obs = ObsConfig{SampleEvery: 4} })
	sampledStats := runWCStorm(t, sampled, n)
	if got := obs.Default().Histogram("core_dlu_batch_items").Snapshot().Count; got <= batchesBefore {
		t.Fatal("batch-size histogram did not grow: sampled requests must ship through the batched DLU daemon")
	}
	if sampled.ring == nil || sampled.ring.Len() == 0 {
		t.Fatal("span ring empty: sampling must record spans")
	}
	sampled.Shutdown()

	plainStats.PeakMemBytes, sampledStats.PeakMemBytes = 0, 0
	if plainStats != sampledStats {
		t.Fatalf("sink stats diverged:\nunsampled %+v\nsampled   %+v", plainStats, sampledStats)
	}
}

// TestSampledSpansRecordStages drives sampled requests through the engine
// and checks the span ring holds correlated per-request stage sequences:
// arrival, instance lifecycle, data movement, completion.
func TestSampledSpansRecordStages(t *testing.T) {
	sys := newUntracedWCSystem(t, 2, func(cfg *Config) {
		cfg.Obs = ObsConfig{SampleEvery: 1, RingSize: 64}
	})
	defer sys.Shutdown()
	for i := 0; i < 8; i++ {
		inv, err := sys.Invoke(map[string][]byte{"start.src": []byte(fmt.Sprintf("w%d x", i))})
		if err != nil {
			t.Fatal(err)
		}
		if err := inv.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	spans := sys.ring.Snapshot()
	if len(spans) != 8 {
		t.Fatalf("ring holds %d spans, want 8", len(spans))
	}
	for _, sp := range spans {
		if sp.TraceID == "" || sp.TraceID == "0000000000000000" {
			t.Fatalf("span %s has no trace id", sp.ReqID)
		}
		stages := make(map[string]bool, len(sp.Stages))
		for _, st := range sp.Stages {
			stages[st.Kind] = true
		}
		for _, want := range []string{"req-arrived", "triggered", "started", "finished", "data-sent", "req-completed"} {
			if !stages[want] {
				t.Fatalf("span %s missing stage %q (has %v)", sp.ReqID, want, sp.Stages)
			}
		}
	}
}

// TestUnsampledRequestsCarryNoSpan pins the 1-in-N contract as ObsConfig
// documents it: with SampleEvery=4 a request carries a span if and only if
// its request number is divisible by 4, and the ring holds exactly those.
// Request numbers come from per-P pooled ID blocks, so the numbers a run
// sees need not be dense; the contract is about the numbers, not the count.
func TestUnsampledRequestsCarryNoSpan(t *testing.T) {
	sys := newUntracedWCSystem(t, 1, func(cfg *Config) {
		cfg.Obs = ObsConfig{SampleEvery: 4, RingSize: 64}
	})
	defer sys.Shutdown()
	sampled := 0
	for i := 0; i < 20; i++ {
		inv, err := sys.Invoke(map[string][]byte{"start.src": []byte("a b")})
		if err != nil {
			t.Fatal(err)
		}
		if err := inv.Wait(); err != nil {
			t.Fatal(err)
		}
		num, err := strconv.ParseInt(strings.TrimPrefix(inv.ReqID, "req-"), 10, 64)
		if err != nil {
			t.Fatalf("request id %q: %v", inv.ReqID, err)
		}
		if want := num%4 == 0; (inv.span != nil) != want {
			t.Fatalf("%s carries a span = %v, want %v", inv.ReqID, inv.span != nil, want)
		}
		if inv.span != nil {
			sampled++
		}
	}
	if got := sys.ring.Len(); got != sampled {
		t.Fatalf("ring holds %d spans, want the %d sampled requests", got, sampled)
	}
}
