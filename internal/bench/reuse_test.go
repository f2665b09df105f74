//go:build !race

package bench

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/topology"
)

// TestCanonicalMatricesPartitionReuse pins how often the canonical
// matrices reuse a partition: every row whose case partitions (all but
// SCOTCH, which maps by DRB) computes its partition once per distinct
// (network, scale, PE count, partition seed) and reuses it otherwise.
// A cache policy that evicts a partition before a row that shares it
// runs shows up here as an extra computed partition. The third matrix
// puts each partition's sharers 130 jobs apart: its two 16-PE
// topologies share every rep's partition, past the artifact cache's
// 128-entry window for partitions no second job has asked for yet.
// Tagged !race: the matrices take seconds plain and tens of seconds
// under -race.
func TestCanonicalMatricesPartitionReuse(t *testing.T) {
	type partKey struct {
		network  string
		scale    float64
		pes      int
		partSeed int64
	}
	far := tinySpec()
	far.Name = "far-sharers"
	far.Topologies = []string{"hypercube:4", "grid:4x4"}
	far.Cases = []string{"identity"}
	far.Reps = 130
	far.NumHierarchies = 1
	for _, spec := range []Spec{Smoke(), SmokeShared(), far} {
		t.Run(spec.Name, func(t *testing.T) {
			rows, _, err := Rows(spec)
			if err != nil {
				t.Fatal(err)
			}
			partitioned := 0
			keys := make(map[partKey]bool)
			for _, r := range rows {
				if r.Case == engine.C1SCOTCH {
					continue
				}
				topo, err := topology.ParseSpec(r.Topology)
				if err != nil {
					t.Fatal(err)
				}
				partitioned++
				keys[partKey{r.Network, r.Scale, topo.PEs(), r.PartitionSeed}] = true
			}
			res, err := Run(spec, RunOptions{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			if res.Summary.Failed != 0 {
				t.Fatalf("%d scenarios failed", res.Summary.Failed)
			}
			computed, reused := res.Perf.PartitionsComputed, res.Perf.PartitionsReused
			if computed != len(keys) || computed+reused != partitioned {
				t.Errorf("partitions %d computed / %d reused, want %d / %d",
					computed, reused, len(keys), partitioned-len(keys))
			}
		})
	}
}
