package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/topology"
)

// structuredInstance builds an application graph with strong locality
// (cliques wired like the topology) plus a bad random initial mapping,
// so that TIMER has substantial room to improve.
func structuredInstance(t *testing.T, seed int64) (*graph.Graph, *topology.Topology, []int32) {
	t.Helper()
	topo, err := topology.Grid(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	n := 16 * 6
	b := graph.NewBuilder(n)
	for pe := 0; pe < 16; pe++ {
		for i := 0; i < 6; i++ {
			for j := i + 1; j < 6; j++ {
				b.AddEdge(pe*6+i, pe*6+j, 8)
			}
		}
	}
	tg := topo.G
	for v := 0; v < tg.N(); v++ {
		nbr, _ := tg.Neighbors(v)
		for _, u := range nbr {
			if int(u) > v {
				b.AddEdge(v*6, int(u)*6, 3)
				b.AddEdge(v*6+1, int(u)*6+1, 1)
			}
		}
	}
	ga := b.Build()
	assign := balancedAssign(n, 16, seed)
	return ga, topo, assign
}

func TestDisableDivStillEnhances(t *testing.T) {
	ga, topo, assign := structuredInstance(t, 61)
	res, err := Enhance(ga, topo, assign, Options{NumHierarchies: 20, Seed: 62, DisableDiv: true})
	if err != nil {
		t.Fatal(err)
	}
	// With DisableDiv the acceptance objective IS plain Coco, so the
	// non-worsening guarantee applies to Coco directly.
	if res.CocoAfter > res.CocoBefore {
		t.Fatalf("NoDiv worsened Coco: %d -> %d", res.CocoBefore, res.CocoAfter)
	}
	if res.CocoAfter == res.CocoBefore {
		t.Error("NoDiv made no progress on an instance with large headroom")
	}
	if err := res.Labeling.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := mapping.Validate(ga, res.Assign, topo, -1); err != nil {
		t.Fatal(err)
	}
}

func TestFixedPermutationsStillValid(t *testing.T) {
	ga, topo, assign := structuredInstance(t, 63)
	res, err := Enhance(ga, topo, assign, Options{NumHierarchies: 10, Seed: 64, FixedPermutations: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.CocoAfter > res.CocoBefore {
		t.Fatalf("fixed permutations worsened Coco: %d -> %d", res.CocoBefore, res.CocoAfter)
	}
	if err := res.Labeling.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRandomHierarchiesBeatFixedOnAverage(t *testing.T) {
	// The paper's central design argument (Section 6): diverse random
	// hierarchies explore more than the two opposite fixed ones. Compare
	// total improvement over a few seeds; random must win the majority.
	wins := 0
	const trials = 5
	for s := int64(0); s < trials; s++ {
		ga, topo, assign := structuredInstance(t, 70+s)
		randRes, err := Enhance(ga, topo, assign, Options{NumHierarchies: 16, Seed: 100 + s})
		if err != nil {
			t.Fatal(err)
		}
		fixRes, err := Enhance(ga, topo, assign, Options{NumHierarchies: 16, Seed: 100 + s, FixedPermutations: true})
		if err != nil {
			t.Fatal(err)
		}
		if randRes.CocoAfter <= fixRes.CocoAfter {
			wins++
		}
	}
	if wins < trials/2+1 {
		t.Errorf("random hierarchies won only %d/%d trials against fixed permutations", wins, trials)
	}
}

// TestWorkersIsIgnored pins the retirement of the batched hierarchy
// loop: the deprecated Options.Workers changes nothing — mapping,
// labels, objectives and counters all equal the Workers == 0 run.
func TestWorkersIsIgnored(t *testing.T) {
	ga, topo, assign := structuredInstance(t, 65)
	want, err := Enhance(ga, topo, assign, Options{NumHierarchies: 12, Seed: 66})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 4, 8} {
		got, err := Enhance(ga, topo, assign, Options{NumHierarchies: 12, Seed: 66, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("Workers=%d changed the result: coco %d vs %d, kept %d vs %d, swaps %d vs %d",
				w, want.CocoAfter, got.CocoAfter, want.HierarchiesKept, got.HierarchiesKept,
				want.SwapsApplied, got.SwapsApplied)
		}
	}
}

func TestSwapRoundsConvergeAndHelp(t *testing.T) {
	ga, topo, assign := structuredInstance(t, 81)
	one, err := Enhance(ga, topo, assign, Options{NumHierarchies: 10, Seed: 82, SwapRounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	many, err := Enhance(ga, topo, assign, Options{NumHierarchies: 10, Seed: 82, SwapRounds: 4})
	if err != nil {
		t.Fatal(err)
	}
	if many.CocoAfter > many.CocoBefore {
		t.Fatal("SwapRounds run worsened Coco")
	}
	if err := many.Labeling.Validate(); err != nil {
		t.Fatal(err)
	}
	// Extra rounds can only add swaps on each level (each swap strictly
	// decreases the level objective, so rounds converge).
	if many.SwapsApplied < one.SwapsApplied {
		t.Logf("note: rounds=4 applied %d swaps vs %d at rounds=1 (acceptance differs)",
			many.SwapsApplied, one.SwapsApplied)
	}
}

func TestObjectiveMasks(t *testing.T) {
	topo, _ := topology.Grid(2, 2)
	ga := graph.Path(8)
	assign := []int32{0, 0, 1, 1, 2, 2, 3, 3}
	lab, err := NewLabeling(ga, topo, assign, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	plus, minus := objectiveMasks(lab, Options{})
	if plus != lab.LpMask() || minus != lab.ExtMask() {
		t.Error("default masks wrong")
	}
	plus, minus = objectiveMasks(lab, Options{DisableDiv: true})
	if plus != lab.LpMask() || minus != 0 {
		t.Error("DisableDiv must zero the minus mask")
	}
}
