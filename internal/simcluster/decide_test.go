package simcluster

import (
	"encoding/json"
	"os"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/workloads"
)

// replicaCase is one row of the replica-choice table shared with core's
// TestSelectReplicaDecisionTable: nodes are indexed in cluster order,
// replicas lists the function's replica set, prefer is -1 for none and want
// is the index of the node the new pin must take.
type replicaCase struct {
	Name     string
	Replicas []int
	Loads    []int
	Health   []string
	Prefer   int
	Want     int
}

// pinnedPlacement places fn on the given nodes and every other function on
// every node, so each node hosts something that can carry its load reading.
type pinnedPlacement struct {
	fn    string
	nodes []int
}

func (p pinnedPlacement) Place(functions, nodes []string, _ cluster.Loads) *cluster.RoutingSnapshot {
	sets := make(map[string][]cluster.Replica, len(functions))
	for _, fn := range functions {
		if fn != p.fn {
			for _, n := range nodes {
				sets[fn] = append(sets[fn], cluster.Replica{Node: n})
			}
			continue
		}
		for _, i := range p.nodes {
			sets[fn] = append(sets[fn], cluster.Replica{Node: nodes[i]})
		}
	}
	return cluster.NewRoutingSnapshot(sets)
}

// TestReplicaForDecisionTable runs the shared replica-choice table through
// the simulator's replicaFor under the fault plane. The runtime engine runs
// the same table through selectReplica, so the two planes' choices cannot
// drift apart.
func TestReplicaForDecisionTable(t *testing.T) {
	raw, err := os.ReadFile("../cluster/testdata/replica_choice.json")
	if err != nil {
		t.Fatal(err)
	}
	var cases []replicaCase
	if err := json.Unmarshal(raw, &cases); err != nil {
		t.Fatal(err)
	}
	prof := workloads.WordCount(3, 0)
	fn := prof.Workflow.Functions[0].Name
	for _, tc := range cases {
		t.Run(tc.Name, func(t *testing.T) {
			s := New(Config{
				Kind:      DataFlower,
				Profile:   prof,
				Workers:   len(tc.Loads),
				Placement: pinnedPlacement{fn: fn, nodes: tc.Replicas},
			})
			s.faulty = true
			for i, n := range s.nodes {
				// The load reading is started containers: on fn's replicas
				// fn's own, elsewhere another hosted function's.
				fs, ok := n.fns[fn]
				if !ok {
					fs = n.fns[sortedFnKeys(n.fns)[0]]
				}
				fs.started = tc.Loads[i]
				n.down = tc.Health[i] == "down"
				n.draining = tc.Health[i] == "draining"
			}
			var prefer *node
			if tc.Prefer >= 0 {
				prefer = s.nodes[tc.Prefer]
			}
			req := s.newRequest(prof)
			got := s.replicaFor(req, fn, prefer)
			if got.idx != tc.Want {
				t.Fatalf("replicaFor chose node %d, want %d", got.idx, tc.Want)
			}
			if req.pin[fn] != got {
				t.Fatal("choice not pinned")
			}
			if !slices.Contains(s.replicas[fn], got) {
				t.Fatal("backfilled node not added to the replica set")
			}
		})
	}
}
