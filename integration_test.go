package repro

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/netgen"
	"repro/internal/topology"
)

// runPaperCase runs one repetition of case c on ga through the engine,
// with the topology named by the paper's alias.
func runPaperCase(t *testing.T, eng *engine.Engine, ga *Graph, topo string, c engine.Case, nh int, seed int64) *engine.JobResult {
	t.Helper()
	res, err := eng.Run(engine.JobSpec{
		Graph:          engine.GraphSpec{G: ga},
		Topology:       topo,
		Case:           c,
		Seed:           seed,
		NumHierarchies: nh,
	})
	if err != nil {
		t.Fatalf("%s on %s: %v", c, topo, err)
	}
	return res
}

// TestIntegrationAllCasesAllTopologies runs the complete pipeline —
// generate, partition/map with every baseline, enhance with TIMER,
// validate — on every paper topology. This is the repository's
// cross-module smoke test.
func TestIntegrationAllCasesAllTopologies(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline across 20 case/topology pairs")
	}
	ga := netgen.Generate(netgen.RMAT, 1600, 6500, 99)
	eng := engine.New(engine.Options{Workers: 1})
	defer eng.Close()
	for _, pt := range topology.PaperTopologies() {
		for _, c := range engine.Cases() {
			m := runPaperCase(t, eng, ga, pt.String(), c, 3, 9)
			if m.CocoAfter > m.CocoBefore {
				t.Errorf("%s on %s: Coco worsened %d -> %d", c, pt, m.CocoBefore, m.CocoAfter)
			}
			if m.CutBefore <= 0 || m.CutAfter <= 0 {
				t.Errorf("%s on %s: degenerate cuts %d -> %d", c, pt, m.CutBefore, m.CutAfter)
			}
			if m.BaseSeconds <= 0 || m.TimerSeconds <= 0 {
				t.Errorf("%s on %s: missing timings base %g, timer %g", c, pt, m.BaseSeconds, m.TimerSeconds)
			}
		}
	}
}

// TestIntegrationImprovementShape verifies the paper's headline ordering
// on a single mid-size instance: the generic DRB baseline leaves more
// room for TIMER than the topology-aware greedies.
func TestIntegrationImprovementShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-case comparison")
	}
	ga := netgen.Generate(netgen.RMAT, 2500, 11000, 5)
	eng := engine.New(engine.Options{Workers: 1})
	defer eng.Close()
	gain := map[engine.Case]float64{}
	for _, c := range engine.Cases() {
		m := runPaperCase(t, eng, ga, topology.Grid2D16x16.String(), c, 8, 4)
		gain[c] = 1 - float64(m.CocoAfter)/float64(m.CocoBefore)
	}
	// c1 (DRB) must see a strictly larger improvement than the greedy
	// baselines c3/c4 (paper Section 7.2: "TIMER is able to decrease the
	// communication costs significantly for c1, even more than in the
	// other cases").
	if gain[engine.C1SCOTCH] <= gain[engine.C3GreedyAllC] ||
		gain[engine.C1SCOTCH] <= gain[engine.C4GreedyMin] {
		t.Errorf("improvement ordering violated: c1=%.3f c2=%.3f c3=%.3f c4=%.3f",
			gain[engine.C1SCOTCH], gain[engine.C2Identity],
			gain[engine.C3GreedyAllC], gain[engine.C4GreedyMin])
	}
	for c, g := range gain {
		if g < 0 {
			t.Errorf("%s: negative improvement %.3f", c, g)
		}
	}
}
