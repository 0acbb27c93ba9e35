package cluster

import "time"

// This file holds the routing decisions both planes make the same way: the
// runtime engine (internal/core) and the discrete-event simulator
// (internal/simcluster) both call these functions, so a policy change lands
// on both at once and the simulator keeps reproducing the engine. They are
// pure and clock-free: the caller supplies the candidates, their health and
// load readings, and keeps its own pin bookkeeping.

// PickReplica returns the index in cands of the replica a new pin should
// take: prefer, when it is a pinnable member (locality-first — the
// producer's output skips the network ship); otherwise the pinnable
// candidate with the lowest load, the first one on ties. It returns -1 when
// no candidate is pinnable. load is consulted only for pinnable candidates.
func PickReplica[N comparable](cands []N, prefer N, pinnable func(N) bool, load func(N) int64) int {
	best := -1
	var bestLoad int64
	for i, n := range cands {
		if !pinnable(n) {
			continue
		}
		if n == prefer {
			return i
		}
		if l := load(n); best < 0 || l < bestLoad {
			best, bestLoad = i, l
		}
	}
	return best
}

// TransferPressure is the paper's Eq. 1: α·Size/Bw − T_FLU, the time a
// function's data-landing unit needs to ship bytes at bw bytes/s beyond the
// time its function-logic unit took to produce them. Positive means the
// function is transfer-bound (callstack blocking, prewarming, scale-up and
// overload signals key off it). It returns 0 when bw is not positive.
func TransferPressure(alpha, bytes, bw float64, tflu time.Duration) time.Duration {
	if bw <= 0 {
		return 0
	}
	return time.Duration(alpha*bytes/bw*float64(time.Second)) - tflu
}
