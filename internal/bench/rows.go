package bench

import (
	"fmt"

	"repro/internal/engine"
)

// Row is one fully-derived job of a matrix run: a scenario × repetition
// with the exact seeds the engine will use and the content-addressed
// key of its graph instance. mapbench -list prints these so seed and
// caching questions ("which jobs share a partition?", "why did rep 3
// miss the cache?") are answerable without running anything.
type Row struct {
	Scenario
	Rep int `json:"rep"`
	// Seed drives mapping and TIMER (the engine batch's per-job seed,
	// derived from the matrix seed, rep and case).
	Seed int64 `json:"seed"`
	// PartitionSeed drives the partition stage: equal to Seed in the
	// default mode, case-independent in shared-partition mode. Jobs with
	// equal (GraphKey, PEs, PartitionSeed) share one partition artifact.
	PartitionSeed int64 `json:"partition_seed"`
	// GraphKey identifies the generated instance ("network@scale#seed");
	// all reps and cases of a scenario share it.
	GraphKey string `json:"graph_key"`
}

// Rows expands the matrix into the per-job rows Run submits, in
// submission order (scenarios outermost, reps innermost), by expanding
// each scenario's engine batch. It returns the rows and the number of
// cells skipped as too small. Dataset files are not loaded here, so
// their cells are listed whatever their size: Run drops those whose
// graph does not outsize the topology, and counts them skipped.
func Rows(spec Spec) ([]Row, int, error) {
	spec = spec.withDefaults()
	scenarios, skipped, err := spec.Expand()
	if err != nil {
		return nil, skipped, err
	}
	rows := make([]Row, 0, len(scenarios)*spec.Reps)
	for _, sc := range scenarios {
		jobs, err := engine.ExpandBatch(spec.batch(sc, engine.GraphSpec{Network: sc.Network, Scale: sc.Scale}), spec.Reps)
		if err != nil {
			return nil, skipped, err
		}
		for rep, js := range jobs {
			r := Row{
				Scenario:      sc,
				Rep:           rep,
				Seed:          js.Seed,
				PartitionSeed: js.PartitionSeed,
				GraphKey:      sc.graphKey(spec.Seed),
			}
			if r.PartitionSeed == 0 {
				r.PartitionSeed = r.Seed // the engine's default
			}
			rows = append(rows, r)
		}
	}
	return rows, skipped, nil
}

// batch is the engine batch behind one scenario: spec.Reps jobs on gs
// and the scenario's topology and case, under the matrix's seed,
// epsilon, NH and partition mode. Run submits it and Rows expands it,
// so -list prints what a run submits.
func (s Spec) batch(sc Scenario, gs engine.GraphSpec) engine.BatchSpec {
	return engine.BatchSpec{
		Graphs:          []engine.GraphSpec{gs},
		Topologies:      []string{sc.Topology},
		Case:            sc.Case,
		Reps:            s.Reps,
		Epsilon:         s.Epsilon,
		Seed:            s.Seed,
		NumHierarchies:  s.NumHierarchies,
		SharedPartition: s.SharedPartition,
	}
}

// graphKey identifies the graph instance behind a scenario of a matrix
// with the given seed: "network@scale#seed" for generated networks.
// Dataset cells are content-addressed, not seed-derived: the instance
// is the file itself.
func (sc Scenario) graphKey(seed int64) string {
	if sc.File != "" {
		return "file:" + sc.File
	}
	return fmt.Sprintf("%s@%g#%d", sc.Network, sc.Scale, seed)
}
