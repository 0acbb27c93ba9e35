package cluster

import (
	"testing"
	"time"
)

func TestPickReplica(t *testing.T) {
	type n struct {
		name string
		ok   bool
		load int64
	}
	a, b, c := &n{"a", true, 3}, &n{"b", true, 1}, &n{"c", true, 1}
	down := &n{"down", false, 0}
	outside := &n{"outside", true, 0}
	cases := []struct {
		name   string
		cands  []*n
		prefer *n
		want   int
	}{
		{"prefer hit", []*n{a, b, c}, a, 0},
		{"prefer after others", []*n{b, c, a}, a, 2},
		{"prefer not pinnable", []*n{a, down, c}, down, 2},
		{"prefer not a member", []*n{a, b}, outside, 1},
		{"least loaded", []*n{a, b}, nil, 1},
		{"tie, first wins", []*n{a, c, b}, nil, 1},
		{"skips unpinnable even when lightest", []*n{down, a}, nil, 1},
		{"none pinnable", []*n{down, down}, nil, -1},
		{"empty", nil, a, -1},
	}
	for _, tc := range cases {
		got := PickReplica(tc.cands, tc.prefer, func(x *n) bool { return x.ok }, func(x *n) int64 {
			if !x.ok {
				t.Errorf("%s: load read for unpinnable %s", tc.name, x.name)
			}
			return x.load
		})
		if got != tc.want {
			t.Errorf("%s: PickReplica = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestTransferPressure(t *testing.T) {
	cases := []struct {
		name             string
		alpha, bytes, bw float64
		tflu, want       time.Duration
	}{
		// 1 MB at 5 MB/s is 200 ms of shipping; the FLU took 50 ms.
		{"transfer-bound", 1, 1e6, 5e6, 50 * time.Millisecond, 150 * time.Millisecond},
		{"alpha scales the ship time", 0.5, 1e6, 5e6, 50 * time.Millisecond, 50 * time.Millisecond},
		{"compute-bound", 1, 1e6, 5e6, 300 * time.Millisecond, -100 * time.Millisecond},
		{"zero bandwidth", 1, 1e6, 0, 50 * time.Millisecond, 0},
		{"negative bandwidth", 1, 1e6, -1, 50 * time.Millisecond, 0},
	}
	for _, tc := range cases {
		if got := TransferPressure(tc.alpha, tc.bytes, tc.bw, tc.tflu); got != tc.want {
			t.Errorf("%s: TransferPressure = %v, want %v", tc.name, got, tc.want)
		}
	}
}
