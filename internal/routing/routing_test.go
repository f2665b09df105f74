package routing

import (
	"math/rand"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/topology"
)

func allTopos(t *testing.T) []*topology.Topology {
	t.Helper()
	var out []*topology.Topology
	for _, mk := range []func() (*topology.Topology, error){
		func() (*topology.Topology, error) { return topology.Grid(5, 4) },
		func() (*topology.Topology, error) { return topology.Grid(3, 3, 3) },
		func() (*topology.Topology, error) { return topology.Torus(6, 4) },
		func() (*topology.Topology, error) { return topology.Hypercube(4) },
		func() (*topology.Topology, error) { return topology.Tree("tree", []int{0, 0, 1, 1, 2, 2, 3}) },
	} {
		tp, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tp)
	}
	return out
}

// TestRoutePathsAreShortest routes one unit between every PE pair: a
// shortest path uses each of its Hamming-many links once.
func TestRoutePathsAreShortest(t *testing.T) {
	for _, tp := range allTopos(t) {
		for u := 0; u < tp.P(); u++ {
			for v := 0; v < tp.P(); v++ {
				res, err := Simulate(graph.Path(2), []int32{int32(u), int32(v)}, tp)
				if err != nil {
					t.Fatal(err)
				}
				want := bitvec.Hamming(tp.Labels[u], tp.Labels[v])
				if res.UsedLinks != want || (want > 0 && res.MaxLinkLoad != 1) {
					t.Fatalf("%s: route %d->%d loads %d links (max load %d), want %d links once each",
						tp.Name, u, v, res.UsedLinks, res.MaxLinkLoad, want)
				}
			}
		}
	}
}

func TestSimulateHopBytesEqualsCoco(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tp := range allTopos(t) {
		ga := randomGraph(60, 180, rng.Int63())
		assign := make([]int32, ga.N())
		for v := range assign {
			assign[v] = int32(rng.Intn(tp.P()))
		}
		res, err := Simulate(ga, assign, tp)
		if err != nil {
			t.Fatal(err)
		}
		if want := mapping.Coco(ga, assign, tp); res.TotalHopBytes != want {
			t.Fatalf("%s: hop-bytes %d != Coco %d", tp.Name, res.TotalHopBytes, want)
		}
		// Link loads must sum to hop-bytes (each hop loads one link).
		var sum int64
		for _, l := range res.LinkLoad {
			sum += l
		}
		if sum != res.TotalHopBytes {
			t.Fatalf("%s: link loads sum to %d, want %d", tp.Name, sum, res.TotalHopBytes)
		}
	}
}

func TestSimulateValidatesInput(t *testing.T) {
	tp, _ := topology.Grid(2, 2)
	if _, err := Simulate(graph.Path(4), []int32{0}, tp); err == nil {
		t.Error("short assignment accepted")
	}
}

func TestSimulateLocalTrafficLoadsNothing(t *testing.T) {
	tp, _ := topology.Grid(2, 2)
	ga := graph.Path(4)
	res, err := Simulate(ga, []int32{1, 1, 1, 1}, tp)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalHopBytes != 0 || res.MaxLinkLoad != 0 || res.UsedLinks != 0 {
		t.Errorf("co-located tasks must not load links: %+v", res)
	}
}

func TestDimensionOrderOnGrid(t *testing.T) {
	// On a grid with the unary coordinate labeling, the canonical route
	// sorts moves by digit index, i.e. it finishes the x-dimension before
	// the y-dimension (classic XY routing). Verify on a 4x4 grid:
	// route from (0,0)=0 to (3,3)=15 must load the link (2,0)->(3,0).
	tp, err := topology.Grid(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(graph.Path(2), []int32{0, 15}, tp)
	if err != nil {
		t.Fatal(err)
	}
	nbr, _ := tp.G.Neighbors(2)
	for i, q := range nbr {
		if q == 3 {
			if load := res.LinkLoad[tp.G.HalfEdgeIndex(2, i)]; load != 1 {
				t.Errorf("XY route 0->15 loads link 2->3 with %d, want 1", load)
			}
			return
		}
	}
	t.Fatal("PEs 2 and 3 are not adjacent")
}

func TestCongestionDistinguishesMappings(t *testing.T) {
	// Two mappings with identical Coco can have different bottlenecks;
	// the simulator must expose that (this is the metric's purpose).
	tp, err := topology.Grid(4, 1) // path of 4 PEs, 3 links
	if err != nil {
		t.Fatal(err)
	}
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1, 1)
	b.AddEdge(2, 3, 1)
	b.AddEdge(4, 5, 1)
	ga := b.Build()
	skewed, _ := Simulate(ga, []int32{1, 2, 1, 2, 1, 2}, tp)
	spread, _ := Simulate(ga, []int32{0, 1, 1, 2, 2, 3}, tp)
	if skewed.TotalHopBytes != spread.TotalHopBytes {
		t.Fatal("setup broken: unequal Coco")
	}
	if skewed.MaxLinkLoad <= spread.MaxLinkLoad {
		t.Errorf("skewed bottleneck %d should exceed spread %d",
			skewed.MaxLinkLoad, spread.MaxLinkLoad)
	}
}

func randomGraph(n, extra int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(v, rng.Intn(v), int64(1+rng.Intn(4)))
	}
	for i := 0; i < extra; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			b.AddEdge(u, v, int64(1+rng.Intn(4)))
		}
	}
	return b.Build()
}

func BenchmarkSimulateGrid16(b *testing.B) {
	tp, _ := topology.Grid(16, 16)
	ga := randomGraph(2000, 8000, 1)
	rng := rand.New(rand.NewSource(2))
	assign := make([]int32, ga.N())
	for v := range assign {
		assign[v] = int32(rng.Intn(tp.P()))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(ga, assign, tp); err != nil {
			b.Fatal(err)
		}
	}
}
