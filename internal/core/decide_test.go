package core

import (
	"encoding/json"
	"os"
	"slices"
	"testing"

	"repro/internal/cluster"
)

// replicaCase is one row of the replica-choice table shared with
// simcluster's TestReplicaForDecisionTable: nodes are indexed in cluster
// order, replicas lists the function's replica set, prefer is -1 for none
// and want is the index of the node the new pin must take.
type replicaCase struct {
	Name     string
	Replicas []int
	Loads    []int64
	Health   []string
	Prefer   int
	Want     int
}

func loadReplicaCases(t *testing.T) []replicaCase {
	t.Helper()
	raw, err := os.ReadFile("../cluster/testdata/replica_choice.json")
	if err != nil {
		t.Fatal(err)
	}
	var cases []replicaCase
	if err := json.Unmarshal(raw, &cases); err != nil {
		t.Fatal(err)
	}
	return cases
}

// TestSelectReplicaDecisionTable runs the shared replica-choice table
// through the runtime engine's selectReplica with the fault-tolerance plane
// on. The simulator runs the same table through replicaFor, so the two
// planes' choices cannot drift apart.
func TestSelectReplicaDecisionTable(t *testing.T) {
	for _, tc := range loadReplicaCases(t) {
		t.Run(tc.Name, func(t *testing.T) {
			sys := newChainSystem(t, len(tc.Loads), nil, func(c *Config) { c.FaultTolerant = true })
			defer sys.Shutdown()
			st := sys.fns["b"]
			reps := make([]*cluster.Node, len(tc.Replicas))
			for i, idx := range tc.Replicas {
				reps[i] = sys.allNodes[idx]
			}
			st.replicas.Store(&reps)
			for i, n := range sys.allNodes {
				sys.nodeLoad[n].Add(0, tc.Loads[i])
				switch tc.Health[i] {
				case "draining":
					sys.cfg.Cluster.DrainNode(n.Name) //nolint:errcheck // n came from the cluster
				case "down":
					sys.cfg.Cluster.FailNode(n.Name) //nolint:errcheck // n came from the cluster
				}
			}
			var prefer *cluster.Node
			if tc.Prefer >= 0 {
				prefer = sys.allNodes[tc.Prefer]
			}
			n, ordinal := sys.selectReplica(st, prefer, "")
			if got := slices.Index(sys.allNodes, n); got != tc.Want {
				t.Fatalf("selectReplica chose node %d, want %d", got, tc.Want)
			}
			// A replica keeps its position as ordinal; a backfilled node
			// takes one past the replica set, unique per node.
			want := slices.Index(tc.Replicas, tc.Want)
			if want < 0 {
				want = len(reps) + tc.Want
			}
			if ordinal != want {
				t.Fatalf("ordinal = %d, want %d", ordinal, want)
			}
		})
	}
}
