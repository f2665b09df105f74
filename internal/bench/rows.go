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
	// Seed drives mapping and TIMER (engine.BatchSeed of the matrix
	// seed, rep and case).
	Seed int64 `json:"seed"`
	// PartitionSeed drives the partition stage: equal to Seed in the
	// default mode, case-independent (engine.SharedPartitionSeed) in
	// shared-partition mode. Jobs with equal (GraphKey, PEs,
	// PartitionSeed) share one partition artifact.
	PartitionSeed int64 `json:"partition_seed"`
	// GraphKey identifies the generated instance ("network@scale#seed");
	// all reps and cases of a scenario share it.
	GraphKey string `json:"graph_key"`
}

// Rows expands the matrix into the exact per-job rows Run submits, in
// submission order (scenarios outermost, reps innermost). It returns
// the rows and the number of cells skipped as too small.
func Rows(spec Spec) ([]Row, int, error) {
	spec = spec.withDefaults()
	scenarios, skipped, err := spec.Expand()
	if err != nil {
		return nil, skipped, err
	}
	rows := make([]Row, 0, len(scenarios)*spec.Reps)
	for _, sc := range scenarios {
		for rep := 0; rep < spec.Reps; rep++ {
			r := Row{
				Scenario: sc,
				Rep:      rep,
				Seed:     engine.BatchSeed(spec.Seed, rep, sc.Case),
				GraphKey: sc.graphKey(spec.Seed),
			}
			if spec.SharedPartition {
				r.PartitionSeed = engine.SharedPartitionSeed(spec.Seed, rep)
			} else {
				r.PartitionSeed = r.Seed
			}
			rows = append(rows, r)
		}
	}
	return rows, skipped, nil
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
