package graph

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestBuilderBasic(t *testing.T) {
	g := NewBuilder(4).
		AddEdge(0, 1, 2).
		AddEdge(1, 2, 3).
		AddEdge(2, 3, 4).
		AddEdge(3, 0, 5).
		Build()
	if g.N() != 4 {
		t.Fatalf("N = %d, want 4", g.N())
	}
	if g.M() != 4 {
		t.Fatalf("M = %d, want 4", g.M())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if w := g.EdgeWeight(0, 1); w != 2 {
		t.Errorf("EdgeWeight(0,1) = %d, want 2", w)
	}
	if w := g.EdgeWeight(1, 0); w != 2 {
		t.Errorf("EdgeWeight(1,0) = %d, want 2", w)
	}
	if g.HasEdge(0, 2) {
		t.Error("HasEdge(0,2) = true, want false")
	}
	if g.TotalEdgeWeight() != 2+3+4+5 {
		t.Errorf("TotalEdgeWeight = %d, want 14", g.TotalEdgeWeight())
	}
	if g.TotalVertexWeight() != 4 {
		t.Errorf("TotalVertexWeight = %d, want 4", g.TotalVertexWeight())
	}
}

func TestBuilderMergesDuplicates(t *testing.T) {
	g := NewBuilder(3).
		AddEdge(0, 1, 1).
		AddEdge(1, 0, 2).
		AddEdge(0, 1, 3).
		Build()
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1 (duplicates must merge)", g.M())
	}
	if w := g.EdgeWeight(0, 1); w != 6 {
		t.Errorf("merged weight = %d, want 6", w)
	}
}

func TestBuilderDropsSelfLoops(t *testing.T) {
	g := NewBuilder(2).AddEdge(0, 0, 5).AddEdge(0, 1, 1).Build()
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1 (self-loop must be dropped)", g.M())
	}
}

func TestBuilderPanicsOnBadInput(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"out of range", func() { NewBuilder(2).AddEdge(0, 2, 1) }},
		{"negative vertex", func() { NewBuilder(2).AddEdge(-1, 0, 1) }},
		{"zero weight", func() { NewBuilder(2).AddEdge(0, 1, 0) }},
		{"negative vertex weight", func() { NewBuilder(2).SetVertexWeight(0, -1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			tc.fn()
		})
	}
}

func TestVertexWeights(t *testing.T) {
	g := NewBuilder(3).
		AddEdge(0, 1, 1).
		SetVertexWeight(0, 10).
		SetVertexWeight(2, 7).
		Build()
	if g.VertexWeight(0) != 10 || g.VertexWeight(1) != 1 || g.VertexWeight(2) != 7 {
		t.Errorf("vertex weights = %d,%d,%d; want 10,1,7",
			g.VertexWeight(0), g.VertexWeight(1), g.VertexWeight(2))
	}
	if g.TotalVertexWeight() != 18 {
		t.Errorf("TotalVertexWeight = %d, want 18", g.TotalVertexWeight())
	}
}

// complete returns the complete graph on n vertices.
func complete(n int) *Graph {
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(u, v, 1)
		}
	}
	return b.Build()
}

// star returns the star graph with center 0 and n-1 leaves.
func star(n int) *Graph {
	b := NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(0, v, 1)
	}
	return b.Build()
}

func TestPathCycleCompleteStar(t *testing.T) {
	p := Path(5)
	if p.M() != 4 || p.Degree(0) != 1 || p.Degree(2) != 2 {
		t.Errorf("Path(5): unexpected structure %v", p)
	}
	c := Cycle(5)
	if c.M() != 5 || c.Degree(0) != 2 {
		t.Errorf("Cycle(5): unexpected structure %v", c)
	}
	k := complete(5)
	if k.M() != 10 || k.MaxDegree() != 4 {
		t.Errorf("Complete(5): unexpected structure %v", k)
	}
	s := star(5)
	if s.M() != 4 || s.Degree(0) != 4 || s.Degree(1) != 1 {
		t.Errorf("Star(5): unexpected structure %v", s)
	}
}

func TestBFSDistances(t *testing.T) {
	g := Path(5)
	d := g.BFS(0)
	for v := 0; v < 5; v++ {
		if int(d[v]) != v {
			t.Errorf("BFS dist to %d = %d, want %d", v, d[v], v)
		}
	}
	// Disconnected graph: unreachable is -1.
	g2 := FromEdgeList(4, [][2]int{{0, 1}, {2, 3}})
	d2 := g2.BFS(0)
	if d2[2] != -1 || d2[3] != -1 {
		t.Errorf("unreachable distances = %d,%d; want -1,-1", d2[2], d2[3])
	}
}

func TestDiameterEccentricity(t *testing.T) {
	// The diameter is the largest eccentricity.
	for _, c := range []struct {
		name string
		g    *Graph
		want int
	}{{"Path(7)", Path(7), 6}, {"Cycle(8)", Cycle(8), 4}} {
		diam := 0
		for v := 0; v < c.g.N(); v++ {
			diam = max(diam, c.g.Eccentricity(v))
		}
		if diam != c.want {
			t.Errorf("%s diameter = %d, want %d", c.name, diam, c.want)
		}
	}
	if e := star(9).Eccentricity(0); e != 1 {
		t.Errorf("Star center eccentricity = %d, want 1", e)
	}
}

func TestComponents(t *testing.T) {
	g := FromEdgeList(6, [][2]int{{0, 1}, {1, 2}, {3, 4}})
	comp, n := g.Components()
	if n != 3 {
		t.Fatalf("components = %d, want 3", n)
	}
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Error("vertices 0,1,2 should share a component")
	}
	if comp[3] != comp[4] || comp[3] == comp[0] || comp[5] == comp[0] || comp[5] == comp[3] {
		t.Error("wrong component structure")
	}
	if g.IsConnected() {
		t.Error("IsConnected = true, want false")
	}
	if !Path(4).IsConnected() {
		t.Error("Path(4) should be connected")
	}
}

func TestLargestComponent(t *testing.T) {
	g := FromEdgeList(7, [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {5, 6}})
	lc, remap := g.LargestComponent()
	if lc.N() != 3 || lc.M() != 3 {
		t.Fatalf("largest component n=%d m=%d, want 3,3", lc.N(), lc.M())
	}
	if remap[0] < 0 || remap[3] >= 0 {
		t.Error("remap should keep triangle, drop rest")
	}
}

func TestIsBipartite(t *testing.T) {
	ok, color := Cycle(6).IsBipartite()
	if !ok {
		t.Fatal("C6 is bipartite")
	}
	g := Cycle(6)
	for v := 0; v < 6; v++ {
		nbr, _ := g.Neighbors(v)
		for _, u := range nbr {
			if color[v] == color[u] {
				t.Fatalf("coloring invalid at edge {%d,%d}", v, u)
			}
		}
	}
	if ok, _ := Cycle(5).IsBipartite(); ok {
		t.Error("C5 is not bipartite")
	}
	if ok, _ := complete(3).IsBipartite(); ok {
		t.Error("K3 is not bipartite")
	}
	if ok, _ := Path(1).IsBipartite(); !ok {
		t.Error("single vertex is bipartite")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := NewBuilder(5).
		AddEdge(0, 1, 2).AddEdge(1, 2, 3).AddEdge(2, 3, 4).AddEdge(3, 4, 5).AddEdge(4, 0, 6).
		Build()
	sub, remap := g.InducedSubgraph([]int32{1, 2, 3})
	if sub.N() != 3 || sub.M() != 2 {
		t.Fatalf("sub n=%d m=%d, want 3,2", sub.N(), sub.M())
	}
	if w := sub.EdgeWeight(int(remap[1]), int(remap[2])); w != 3 {
		t.Errorf("edge weight = %d, want 3", w)
	}
	if remap[0] != -1 || remap[4] != -1 {
		t.Error("vertices outside subgraph must map to -1")
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestQuotient(t *testing.T) {
	// Figure 1 of the paper: partition into blocks; quotient aggregates
	// inter-block weights and drops intra-block edges.
	g := NewBuilder(6).
		AddEdge(0, 1, 1). // intra block 0
		AddEdge(0, 2, 2). // 0-1
		AddEdge(1, 3, 3). // 0-1
		AddEdge(2, 3, 1). // intra block 1
		AddEdge(3, 4, 4). // 1-2
		AddEdge(4, 5, 1). // intra block 2
		AddEdge(5, 0, 5). // 2-0
		Build()
	part := []int32{0, 0, 1, 1, 2, 2}
	q := g.Quotient(part, 3)
	if q.N() != 3 || q.M() != 3 {
		t.Fatalf("quotient n=%d m=%d, want 3,3", q.N(), q.M())
	}
	if w := q.EdgeWeight(0, 1); w != 5 {
		t.Errorf("block edge 0-1 weight = %d, want 5", w)
	}
	if w := q.EdgeWeight(1, 2); w != 4 {
		t.Errorf("block edge 1-2 weight = %d, want 4", w)
	}
	if w := q.EdgeWeight(2, 0); w != 5 {
		t.Errorf("block edge 2-0 weight = %d, want 5", w)
	}
	if q.VertexWeight(0) != 2 {
		t.Errorf("block 0 weight = %d, want 2", q.VertexWeight(0))
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestQuotientEmptyBlocks(t *testing.T) {
	g := Path(3)
	q := g.Quotient([]int32{0, 0, 2}, 4)
	if q.N() != 4 {
		t.Fatalf("quotient n=%d, want 4", q.N())
	}
	if q.VertexWeight(1) != 0 || q.VertexWeight(3) != 0 {
		t.Error("empty blocks should have weight 0")
	}
}

func TestMETISRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(30)
		b := NewBuilder(n)
		for i := 0; i < n*2; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				b.AddEdge(u, v, int64(1+rng.Intn(9)))
			}
		}
		if trial%2 == 0 {
			for v := 0; v < n; v++ {
				b.SetVertexWeight(v, int64(1+rng.Intn(5)))
			}
		}
		g := b.Build()
		var buf bytes.Buffer
		if err := g.WriteMETIS(&buf); err != nil {
			t.Fatal(err)
		}
		h, err := ReadMETIS(&buf)
		if err != nil {
			t.Fatalf("trial %d: %v\n", trial, err)
		}
		if h.N() != g.N() || h.M() != g.M() {
			t.Fatalf("round trip changed size: %v -> %v", g, h)
		}
		for v := 0; v < n; v++ {
			if h.VertexWeight(v) != g.VertexWeight(v) {
				t.Fatalf("vertex weight changed at %d", v)
			}
			nbr, ew := g.Neighbors(v)
			for i, u := range nbr {
				if h.EdgeWeight(v, int(u)) != ew[i] {
					t.Fatalf("edge weight changed at {%d,%d}", v, u)
				}
			}
		}
	}
}

func TestReadMETISUnweighted(t *testing.T) {
	in := "% a comment\n3 2 0\n2\n1 3\n2\n"
	g, err := ReadMETIS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("got %v, want n=3 m=2", g)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 2) || g.HasEdge(0, 2) {
		t.Error("wrong edges")
	}
}

func TestReadMETISErrors(t *testing.T) {
	cases := []string{
		"",
		"abc def\n",
		"3 5 0\n2\n1 3\n2\n", // edge count mismatch
		"2 1 7\n2\n1\n",      // bad format code
		"2 1 0\n5\n1\n",      // neighbor out of range
	}
	for i, in := range cases {
		if _, err := ReadMETIS(strings.NewReader(in)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

// Property: Quotient preserves total vertex weight and never increases
// total edge weight.
func TestQuotientWeightConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		b := NewBuilder(n)
		for i := 0; i < 2*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				b.AddEdge(u, v, int64(1+rng.Intn(5)))
			}
		}
		g := b.Build()
		k := 1 + rng.Intn(n)
		part := make([]int32, n)
		for i := range part {
			part[i] = int32(rng.Intn(k))
		}
		q := g.Quotient(part, k)
		return q.TotalVertexWeight() == g.TotalVertexWeight() &&
			q.TotalEdgeWeight() <= g.TotalEdgeWeight() &&
			q.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: BFS distances satisfy the triangle inequality along edges
// (|d(u)-d(v)| <= 1 for every edge in a connected graph).
func TestBFSLipschitz(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(50)
		b := NewBuilder(n)
		for v := 1; v < n; v++ { // random spanning tree keeps it connected
			b.AddEdge(v, rng.Intn(v), 1)
		}
		for i := 0; i < n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				b.AddEdge(u, v, 1)
			}
		}
		g := b.Build()
		d := g.BFS(rng.Intn(n))
		for v := 0; v < n; v++ {
			nbr, _ := g.Neighbors(v)
			for _, u := range nbr {
				diff := d[v] - d[u]
				if diff < -1 || diff > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
