package core

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/graph"
	"repro/internal/topology"
)

// benchInstance is the shared hot-path workload: a 2048-vertex graph
// with ~6k extra edges mapped onto an 8×8 grid (dimGa = 11).
func benchInstance(tb testing.TB) *Labeling {
	tb.Helper()
	topo, _ := topology.Grid(8, 8)
	ga := randomGraph(2048, 6144, 1)
	assign := balancedAssign(2048, 64, 2)
	lab, err := NewLabeling(ga, topo, assign, rand.New(rand.NewSource(3)))
	if err != nil {
		tb.Fatal(err)
	}
	return lab
}

// BenchmarkTryHierarchy measures one full hierarchy trial — the unit
// TIMER runs NumHierarchies times per job — on a warm scratch.
func BenchmarkTryHierarchy(b *testing.B) {
	lab := benchInstance(b)
	pi := bitvec.Random(rand.New(rand.NewSource(5)), lab.DimGa)
	plus, minus := lab.LpMask(), lab.ExtMask()
	coco, div := cocoAndDivOfLabels(lab.Ga, lab.Labels, plus, minus)
	sc := NewScratch()
	tryHierarchy(lab.Ga, lab.Labels, lab.DimGa, pi, plus, minus, 1, coco, coco-div, sc) // warm the scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tryHierarchy(lab.Ga, lab.Labels, lab.DimGa, pi, plus, minus, 1, coco, coco-div, sc)
	}
}

// TestTryHierarchyWarmScratchZeroAllocs is the tentpole guarantee: once
// a Scratch is warm, a full hierarchy trial performs no heap allocation.
func TestTryHierarchyWarmScratchZeroAllocs(t *testing.T) {
	lab := benchInstance(t)
	pi := bitvec.Random(rand.New(rand.NewSource(5)), lab.DimGa)
	plus, minus := lab.LpMask(), lab.ExtMask()
	coco, div := cocoAndDivOfLabels(lab.Ga, lab.Labels, plus, minus)
	sc := NewScratch()
	tryHierarchy(lab.Ga, lab.Labels, lab.DimGa, pi, plus, minus, 1, coco, coco-div, sc)
	allocs := testing.AllocsPerRun(10, func() {
		tryHierarchy(lab.Ga, lab.Labels, lab.DimGa, pi, plus, minus, 1, coco, coco-div, sc)
	})
	if allocs != 0 {
		t.Errorf("warm-scratch tryHierarchy allocates %.1f times per run, want 0", allocs)
	}
}

// TestTryHierarchyColdAllocsBounded pins the two coarse-graph buffers
// of a hierarchy: a cold trial on a 63-level hierarchy (3,072 vertices
// on a 32×32 grid, dimGa 64) allocates per-level labels and parent
// links plus two coarse graphs, about 19× the input's CSR footprint.
// The 25× bound sits below the 56× that one coarse graph per level
// allocates.
func TestTryHierarchyColdAllocsBounded(t *testing.T) {
	topo, _ := topology.Grid(32, 32)
	ga := randomGraph(3072, 9216, 21)
	lab, err := NewLabeling(ga, topo, balancedAssign(3072, topo.P(), 22), rand.New(rand.NewSource(23)))
	if err != nil {
		t.Fatal(err)
	}
	pi := bitvec.Random(rand.New(rand.NewSource(24)), lab.DimGa)
	plus, minus := lab.LpMask(), lab.ExtMask()
	coco, div := cocoAndDivOfLabels(ga, lab.Labels, plus, minus)
	sc := NewScratch()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr := tryHierarchy(ga, lab.Labels, lab.DimGa, pi, plus, minus, 1, coco, coco-div, sc)
	runtime.ReadMemStats(&after)
	if sc.nlev < 60 || tr.swaps == 0 {
		t.Fatalf("trial built %d levels with %d swaps; want a deep hierarchy that assembles", sc.nlev, tr.swaps)
	}
	alloc := int64(after.TotalAlloc - before.TotalAlloc)
	if limit := 25 * ga.FootprintBytes(); alloc > limit {
		t.Errorf("cold tryHierarchy allocated %d bytes (%.1f× the input's %d-byte CSR), want ≤ 25×",
			alloc, float64(alloc)/float64(ga.FootprintBytes()), ga.FootprintBytes())
	}
}

// TestRunHierarchiesWarmScratchZeroAllocs extends the guarantee to the
// whole hierarchy loop: without Spawn, a run on a warm Scratch performs
// no heap allocation — the permutation table, trial table, best-Coco
// labels and the round's WaitGroup all live in the Scratch.
func TestRunHierarchiesWarmScratchZeroAllocs(t *testing.T) {
	lab := benchInstance(t)
	start := append([]bitvec.Label(nil), lab.Labels...)
	opt := Options{NumHierarchies: 8}.withDefaults()
	rng := rand.New(rand.NewSource(9))
	res := &Result{}
	sc := NewScratch()
	// Every run restarts from the same labeling and rng state, so it
	// needs exactly the buffer sizes the warm-up run grew.
	run := func() {
		copy(lab.Labels, start)
		rng.Seed(9)
		*res = Result{}
		runHierarchies(lab, opt, rng, res, sc)
	}
	run()
	if res.SwapsApplied == 0 {
		t.Fatal("warm-up run applied no swaps; the check would skip assembly")
	}
	if allocs := testing.AllocsPerRun(5, run); allocs != 0 {
		t.Errorf("warm-scratch runHierarchies allocates %.1f times per run, want 0", allocs)
	}
}

// BenchmarkSuffixTrieAssemble isolates the Algorithm 2 half of a trial:
// rebuilding the counting trie and assembling a fine labeling from a
// built hierarchy.
func BenchmarkSuffixTrieAssemble(b *testing.B) {
	lab := benchInstance(b)
	pi := bitvec.Random(rand.New(rand.NewSource(7)), lab.DimGa)
	plus, minus := lab.LpMask(), lab.ExtMask()
	sc := NewScratch()
	sc.fwd.CompileInto(pi)
	sc.perm = graph.Resize(sc.perm, len(lab.Labels))
	for v, l := range lab.Labels {
		sc.perm[v] = sc.fwd.Apply(l)
	}
	sc.signs = sc.signs[:lab.DimGa]
	for j := range sc.signs {
		if uint64(1)<<uint(pi[j])&plus != 0 {
			sc.signs[j] = 1
		} else if uint64(1)<<uint(pi[j])&minus != 0 {
			sc.signs[j] = -1
		}
	}
	sc.buildHierarchy(lab.Ga, lab.DimGa, sc.signs, 1)
	sc.assembled = graph.Resize(sc.assembled, len(lab.Labels))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.trie.build(sc.perm, lab.DimGa)
		assemble(sc.levels[:sc.nlev], lab.DimGa, &sc.trie, sc.assembled, sc.path)
	}
}

// BenchmarkEnhance measures a whole TIMER run end to end, the way an
// engine worker executes it (one warm scratch across hierarchies).
func BenchmarkEnhance(b *testing.B) {
	topo, _ := topology.Grid(8, 8)
	ga := randomGraph(2048, 6144, 1)
	assign := balancedAssign(2048, 64, 2)
	sc := NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Enhance(ga, topo, assign, Options{NumHierarchies: 8, Seed: 9, Scratch: sc}); err != nil {
			b.Fatal(err)
		}
	}
}
