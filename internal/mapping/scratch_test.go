package mapping

import (
	"testing"

	"repro/internal/bitvec"
	"repro/internal/graph"
	"repro/internal/netgen"
	"repro/internal/partition"
	"repro/internal/topology"
)

// benchInstance is the smoke workload: p2p-Gnutella at quarter scale
// partitioned for a 64-PE grid, the input of the c3/c4 greedy mappers.
func benchInstance(tb testing.TB) (*graph.Graph, []int32, *topology.Topology) {
	tb.Helper()
	spec, err := netgen.ByName("p2p-Gnutella")
	if err != nil {
		tb.Fatal(err)
	}
	g := spec.Generate(0.25, 1)
	topo, err := topology.Grid(8, 8)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := partition.Partition(g, partition.Config{K: topo.P(), Epsilon: 0.03, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return g, res.Part, topo
}

func sameGraph(tb testing.TB, got, want *graph.Graph) {
	tb.Helper()
	if got.N() != want.N() || got.M() != want.M() {
		tb.Fatalf("graph shape n=%d m=%d, want n=%d m=%d", got.N(), got.M(), want.N(), want.M())
	}
	for v := 0; v < want.N(); v++ {
		if got.VertexWeight(v) != want.VertexWeight(v) {
			tb.Fatalf("vertex %d weight %d, want %d", v, got.VertexWeight(v), want.VertexWeight(v))
		}
		gn, ge := got.Neighbors(v)
		wn, we := want.Neighbors(v)
		if len(gn) != len(wn) {
			tb.Fatalf("vertex %d degree %d, want %d", v, len(gn), len(wn))
		}
		for i := range wn {
			// Adjacency order matters: downstream tie-breaking follows it.
			if gn[i] != wn[i] || ge[i] != we[i] {
				tb.Fatalf("vertex %d slot %d: (%d,%d), want (%d,%d)", v, i, gn[i], ge[i], wn[i], we[i])
			}
		}
	}
}

// TestScratchCommGraphMatchesQuotient pins the sorted reused-storage
// communication graph to the map-based Quotient construction, adjacency
// order included.
func TestScratchCommGraphMatchesQuotient(t *testing.T) {
	ga, part, topo := benchInstance(t)
	want := CommGraph(ga, part, topo.P())
	sc := NewScratch()
	for round := 0; round < 2; round++ {
		got := sc.CommGraph(ga, part, topo.P())
		if err := got.Validate(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		sameGraph(t, got, want)
	}
}

// TestGreedyScratchMatchesPackage: the scratch constructors must
// reproduce the allocating ones decision for decision.
func TestGreedyScratchMatchesPackage(t *testing.T) {
	ga, part, topo := benchInstance(t)
	gc := CommGraph(ga, part, topo.P())
	sc := NewScratch()
	for name, fns := range map[string]struct {
		pkg func(*graph.Graph, *topology.Topology) ([]int32, error)
		scr func(*graph.Graph, *topology.Topology) ([]int32, error)
	}{
		"allc": {GreedyAllC, sc.GreedyAllC},
		"min":  {GreedyMin, sc.GreedyMin},
	} {
		want, err := fns.pkg(gc, topo)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 2; round++ {
			got, err := fns.scr(gc, topo)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s round %d: nu[%d] = %d, want %d", name, round, i, got[i], want[i])
				}
			}
		}
	}
}

// TestDRBScratchDeterminism: warm-scratch DRB must equal the package
// path byte for byte.
func TestDRBScratchDeterminism(t *testing.T) {
	ga, _, topo := benchInstance(t)
	cfg := DRBConfig{Epsilon: 0.03, Seed: 9, Fast: true}
	want, err := DRB(ga, topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScratch()
	for round := 0; round < 2; round++ {
		got, err := sc.DRB(ga, topo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("round %d: assign[%d] = %d, want %d", round, v, got[v], want[v])
			}
		}
	}
}

// TestCocoDilationTableEquivalence: the distance-table fast paths of
// Coco and Dilation must agree with a direct Hamming evaluation.
func TestCocoDilationTableEquivalence(t *testing.T) {
	ga, part, topo := benchInstance(t)
	assign := FromPartition(part)
	if topo.DistanceTable() == nil {
		t.Fatal("64-PE grid should have a distance table")
	}
	var wantCoco int64
	wantDil := 0
	for v := 0; v < ga.N(); v++ {
		lv := topo.Labels[assign[v]]
		nbr, ew := ga.Neighbors(v)
		for i, u := range nbr {
			if int(u) > v {
				h := bitvec.Hamming(lv, topo.Labels[assign[u]])
				wantCoco += ew[i] * int64(h)
				if h > wantDil {
					wantDil = h
				}
			}
		}
	}
	if got := Coco(ga, assign, topo); got != wantCoco {
		t.Errorf("Coco = %d, want %d", got, wantCoco)
	}
	if got := Dilation(ga, assign, topo); got != wantDil {
		t.Errorf("Dilation = %d, want %d", got, wantDil)
	}
}

// TestGreedyWarmAllocs pins the warm c3/c4 map stage to zero heap
// allocations: communication-graph contraction and both greedy
// constructions run entirely on scratch storage.
func TestGreedyWarmAllocs(t *testing.T) {
	ga, part, topo := benchInstance(t)
	sc := NewScratch()
	run := func() {
		gc := sc.CommGraph(ga, part, topo.P())
		if _, err := sc.GreedyMin(gc, topo); err != nil {
			t.Fatal(err)
		}
	}
	run() // reach the high-water mark
	if allocs := testing.AllocsPerRun(10, run); allocs > 0 {
		t.Errorf("warm CommGraph+GreedyMin allocates %.0f times per call, want 0", allocs)
	}
}

func BenchmarkGreedyCold(b *testing.B) {
	ga, part, topo := benchInstance(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gc := CommGraph(ga, part, topo.P())
		if _, err := GreedyMin(gc, topo); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGreedyWarm(b *testing.B) {
	ga, part, topo := benchInstance(b)
	sc := NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gc := sc.CommGraph(ga, part, topo.P())
		if _, err := sc.GreedyMin(gc, topo); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDRBWarm runs warm DRB sequentially and wide, with a Spawn
// hook that always accepts (one goroutine per offered right half).
func BenchmarkDRBWarm(b *testing.B) {
	ga, _, topo := benchInstance(b)
	always := func(fn func()) bool { go fn(); return true }
	for _, mode := range []struct {
		name  string
		spawn func(func()) bool
	}{{"sequential", nil}, {"wide", always}} {
		b.Run(mode.name, func(b *testing.B) {
			sc := NewScratch()
			cfg := DRBConfig{Epsilon: 0.03, Seed: 1, Fast: true, Spawn: mode.spawn}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sc.DRB(ga, topo, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
