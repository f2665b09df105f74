package graph

import (
	"math/rand"
	"testing"
)

func randomTestGraph(n, extra int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(v, rng.Intn(v), int64(1+rng.Intn(9)))
	}
	for i := 0; i < extra; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			b.AddEdge(u, v, int64(1+rng.Intn(9)))
		}
	}
	return b.Build()
}

// TestContractorMatchesQuotient checks the reusable-storage contraction
// against the map-based Quotient on random graphs and groupings: same
// vertex weights, same aggregated edge weights, same totals.
func TestContractorMatchesQuotient(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var c Contractor
	var dst Graph
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(200)
		g := randomTestGraph(n, 2*n, rng.Int63())
		// Random grouping with every coarse id hit at least once, as in
		// hierarchy contraction (ids assigned first-come in vertex order).
		nCoarse := 1 + rng.Intn(n)
		coarse := make([]int32, n)
		for v := range coarse {
			if v < nCoarse {
				coarse[v] = int32(v)
			} else {
				coarse[v] = int32(rng.Intn(nCoarse))
			}
		}
		want := g.Quotient(coarse, nCoarse)
		c.ContractInto(&dst, g, coarse, nCoarse)
		if err := dst.Validate(); err != nil {
			t.Fatalf("trial %d: contracted graph invalid: %v", trial, err)
		}
		if dst.N() != want.N() || dst.M() != want.M() {
			t.Fatalf("trial %d: got n=%d m=%d, want n=%d m=%d", trial, dst.N(), dst.M(), want.N(), want.M())
		}
		if dst.TotalVertexWeight() != want.TotalVertexWeight() || dst.TotalEdgeWeight() != want.TotalEdgeWeight() {
			t.Fatalf("trial %d: totals differ: tvw %d/%d tew %d/%d", trial,
				dst.TotalVertexWeight(), want.TotalVertexWeight(), dst.TotalEdgeWeight(), want.TotalEdgeWeight())
		}
		for v := 0; v < nCoarse; v++ {
			if dst.VertexWeight(v) != want.VertexWeight(v) {
				t.Fatalf("trial %d: vertex %d weight %d, want %d", trial, v, dst.VertexWeight(v), want.VertexWeight(v))
			}
			nbr, ew := want.Neighbors(v)
			for i, u := range nbr {
				if got := dst.EdgeWeight(v, int(u)); got != ew[i] {
					t.Fatalf("trial %d: edge {%d,%d} weight %d, want %d", trial, v, u, got, ew[i])
				}
			}
		}
	}
}

// TestContractorWarmZeroAllocs: contracting into warm storage must not
// allocate — this is what keeps the TIMER hierarchy allocation-free.
func TestContractorWarmZeroAllocs(t *testing.T) {
	g := randomTestGraph(512, 1024, 7)
	coarse := make([]int32, g.N())
	for v := range coarse {
		coarse[v] = int32(v / 2)
	}
	var c Contractor
	var dst Graph
	c.ContractInto(&dst, g, coarse, g.N()/2)
	allocs := testing.AllocsPerRun(10, func() {
		c.ContractInto(&dst, g, coarse, g.N()/2)
	})
	if allocs != 0 {
		t.Errorf("warm ContractInto allocates %.1f times, want 0", allocs)
	}
}

func BenchmarkQuotient(b *testing.B) {
	g := randomTestGraph(2048, 4096, 9)
	coarse := make([]int32, g.N())
	for v := range coarse {
		coarse[v] = int32(v / 2)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Quotient(coarse, g.N()/2)
	}
}

func BenchmarkContractInto(b *testing.B) {
	g := randomTestGraph(2048, 4096, 9)
	coarse := make([]int32, g.N())
	for v := range coarse {
		coarse[v] = int32(v / 2)
	}
	var c Contractor
	var dst Graph
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ContractInto(&dst, g, coarse, g.N()/2)
	}
}

// sameCSR compares two graphs field for field, adjacency order
// included: the sorted contraction and induced-subgraph fast paths
// promise byte-identical structure to their Builder-based references,
// because partitioner tie-breaking follows adjacency order.
func sameCSR(t *testing.T, trial int, got, want *Graph) {
	t.Helper()
	if got.N() != want.N() || got.M() != want.M() ||
		got.TotalVertexWeight() != want.TotalVertexWeight() ||
		got.TotalEdgeWeight() != want.TotalEdgeWeight() {
		t.Fatalf("trial %d: shape n=%d m=%d tvw=%d tew=%d, want n=%d m=%d tvw=%d tew=%d",
			trial, got.N(), got.M(), got.TotalVertexWeight(), got.TotalEdgeWeight(),
			want.N(), want.M(), want.TotalVertexWeight(), want.TotalEdgeWeight())
	}
	for v := 0; v < want.N(); v++ {
		if got.VertexWeight(v) != want.VertexWeight(v) {
			t.Fatalf("trial %d: vertex %d weight %d, want %d", trial, v, got.VertexWeight(v), want.VertexWeight(v))
		}
		gn, ge := got.Neighbors(v)
		wn, we := want.Neighbors(v)
		if len(gn) != len(wn) {
			t.Fatalf("trial %d: vertex %d degree %d, want %d", trial, v, len(gn), len(wn))
		}
		for i := range wn {
			if gn[i] != wn[i] || ge[i] != we[i] {
				t.Fatalf("trial %d: vertex %d slot %d: (%d,%d), want (%d,%d)",
					trial, v, i, gn[i], ge[i], wn[i], we[i])
			}
		}
	}
}

// TestContractSortedIntoMatchesQuotient: the sorted reused-storage
// contraction must equal the Builder-based Quotient exactly, including
// adjacency order.
func TestContractSortedIntoMatchesQuotient(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var c Contractor
	var dst Graph
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(200)
		g := randomTestGraph(n, 2*n, rng.Int63())
		nCoarse := 1 + rng.Intn(n)
		coarse := make([]int32, n)
		for v := range coarse {
			if v < nCoarse {
				coarse[v] = int32(v)
			} else {
				coarse[v] = int32(rng.Intn(nCoarse))
			}
		}
		want := g.Quotient(coarse, nCoarse)
		c.ContractSortedInto(&dst, g, coarse, nCoarse)
		if err := dst.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		sameCSR(t, trial, &dst, want)
	}
}

// TestInducedSubgraphIntoMatchesInducedSubgraph: the monotone-remap
// fast path must equal the Builder-based construction exactly, and a
// fresh destination's adjacency storage must hold exactly the induced
// rows, not the parent's edge count.
func TestInducedSubgraphIntoMatchesInducedSubgraph(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var dst Graph
	var remap []int32
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(200)
		g := randomTestGraph(n, 2*n, rng.Int63())
		var vertices []int32
		for v := 0; v < n; v++ {
			if rng.Intn(2) == 0 {
				vertices = append(vertices, int32(v))
			}
		}
		if len(vertices) == 0 {
			vertices = append(vertices, int32(rng.Intn(n)))
		}
		want, wantRemap := g.InducedSubgraph(vertices)
		remap = InducedSubgraphInto(&dst, g, vertices, remap)
		if err := dst.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		sameCSR(t, trial, &dst, want)
		for v := range wantRemap {
			if remap[v] != wantRemap[v] {
				t.Fatalf("trial %d: remap[%d] = %d, want %d", trial, v, remap[v], wantRemap[v])
			}
		}
		var fresh Graph
		InducedSubgraphInto(&fresh, g, vertices, nil)
		if cap(fresh.adj) != len(dst.adj) || cap(fresh.ew) != len(dst.ew) {
			t.Fatalf("trial %d: fresh adjacency cap %d/%d, want the induced length %d of %d",
				trial, cap(fresh.adj), cap(fresh.ew), len(dst.adj), len(g.adj))
		}
		vertices = vertices[:0]
	}
}

// TestSortedContractionWarmZeroAllocs: the sorted variants power the
// partitioner's warm path and must stay allocation-free too.
func TestSortedContractionWarmZeroAllocs(t *testing.T) {
	g := randomTestGraph(512, 1024, 7)
	coarse := make([]int32, g.N())
	vertices := make([]int32, 0, g.N())
	for v := range coarse {
		coarse[v] = int32(v / 2)
		if v%2 == 0 {
			vertices = append(vertices, int32(v))
		}
	}
	var c Contractor
	var dst, sub Graph
	var remap []int32
	c.ContractSortedInto(&dst, g, coarse, g.N()/2)
	remap = InducedSubgraphInto(&sub, g, vertices, remap)
	if allocs := testing.AllocsPerRun(10, func() {
		c.ContractSortedInto(&dst, g, coarse, g.N()/2)
	}); allocs != 0 {
		t.Errorf("warm ContractSortedInto allocates %.1f times, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		remap = InducedSubgraphInto(&sub, g, vertices, remap)
	}); allocs != 0 {
		t.Errorf("warm InducedSubgraphInto allocates %.1f times, want 0", allocs)
	}
}

func BenchmarkContractSortedInto(b *testing.B) {
	g := randomTestGraph(2048, 4096, 9)
	coarse := make([]int32, g.N())
	for v := range coarse {
		coarse[v] = int32(v / 2)
	}
	var c Contractor
	var dst Graph
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ContractSortedInto(&dst, g, coarse, g.N()/2)
	}
}

func BenchmarkInducedSubgraph(b *testing.B) {
	g := randomTestGraph(2048, 4096, 9)
	vertices := make([]int32, 0, g.N()/2)
	for v := 0; v < g.N(); v += 2 {
		vertices = append(vertices, int32(v))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.InducedSubgraph(vertices)
	}
}

func BenchmarkInducedSubgraphInto(b *testing.B) {
	g := randomTestGraph(2048, 4096, 9)
	vertices := make([]int32, 0, g.N()/2)
	for v := 0; v < g.N(); v += 2 {
		vertices = append(vertices, int32(v))
	}
	var dst Graph
	var remap []int32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		remap = InducedSubgraphInto(&dst, g, vertices, remap)
	}
}
