package partialcube

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/graph"
)

func mustRecognize(t *testing.T, g *graph.Graph) *Labeling {
	t.Helper()
	l, err := Recognize(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Verify(g); err != nil {
		t.Fatal(err)
	}
	return l
}

func TestPathIsPartialCube(t *testing.T) {
	// A path on n vertices is a tree: dimension n-1.
	for _, n := range []int{1, 2, 3, 7, 20} {
		g := graph.Path(n)
		l := mustRecognize(t, g)
		if l.Dim != n-1 {
			t.Errorf("Path(%d): dim = %d, want %d", n, l.Dim, n-1)
		}
	}
}

func TestEvenCycleIsPartialCube(t *testing.T) {
	// C_{2k} is a partial cube of dimension k; each θ-class holds the two
	// antipodal edges.
	for _, k := range []int{2, 3, 4, 8} {
		g := graph.Cycle(2 * k)
		l := mustRecognize(t, g)
		if l.Dim != k {
			t.Errorf("C%d: dim = %d, want %d", 2*k, l.Dim, k)
		}
		for j, class := range l.Classes {
			if len(class) != 2 {
				t.Errorf("C%d: θ-class %d has %d edges, want 2", 2*k, j, len(class))
			}
		}
	}
}

func TestOddCycleRejected(t *testing.T) {
	for _, n := range []int{3, 5, 9} {
		_, err := Recognize(graph.Cycle(n))
		if !errors.Is(err, ErrNotPartialCube) {
			t.Errorf("C%d: err = %v, want ErrNotPartialCube", n, err)
		}
	}
}

func TestK23Rejected(t *testing.T) {
	// K_{2,3} is bipartite but not a partial cube (θ-classes overlap).
	g := graph.FromEdgeList(5, [][2]int{{0, 2}, {0, 3}, {0, 4}, {1, 2}, {1, 3}, {1, 4}})
	_, err := Recognize(g)
	if !errors.Is(err, ErrNotPartialCube) {
		t.Errorf("K23: err = %v, want ErrNotPartialCube", err)
	}
}

func TestDisconnectedRejected(t *testing.T) {
	g := graph.FromEdgeList(4, [][2]int{{0, 1}, {2, 3}})
	_, err := Recognize(g)
	if !errors.Is(err, ErrNotPartialCube) {
		t.Errorf("disconnected: err = %v, want ErrNotPartialCube", err)
	}
}

func TestWeightedEdgesRejected(t *testing.T) {
	g := graph.NewBuilder(2).AddEdge(0, 1, 3).Build()
	if _, err := Recognize(g); err == nil {
		t.Error("weighted graph should be rejected")
	}
}

func TestHypercubeRecognition(t *testing.T) {
	// Build Q_d explicitly; recognition must find exactly d classes with
	// 2^{d-1} edges each.
	for _, d := range []int{1, 2, 3, 4, 5} {
		n := 1 << d
		b := graph.NewBuilder(n)
		for v := 0; v < n; v++ {
			for j := 0; j < d; j++ {
				if u := v ^ (1 << j); u > v {
					b.AddEdge(v, u, 1)
				}
			}
		}
		l := mustRecognize(t, b.Build())
		if l.Dim != d {
			t.Errorf("Q%d: dim = %d, want %d", d, l.Dim, d)
		}
		for j, class := range l.Classes {
			if len(class) != n/2 {
				t.Errorf("Q%d: class %d has %d edges, want %d", d, j, len(class), n/2)
			}
		}
	}
}

func TestPaperFigure3Graph(t *testing.T) {
	// Figure 3a: a 4-cycle with one pendant vertex... actually the figure
	// shows a "plus"-shaped 2x2-ish graph with two convex cuts. We encode
	// its essential claim on C4: two convex cuts, labels 00,01,11,10 up to
	// symmetry, and d(u,v) = Hamming everywhere.
	g := graph.Cycle(4)
	l := mustRecognize(t, g)
	if l.Dim != 2 {
		t.Fatalf("dim = %d, want 2", l.Dim)
	}
	// Opposite corners at Hamming distance 2.
	if bitvec.Hamming(l.Labels[0], l.Labels[2]) != 2 {
		t.Error("opposite corners should differ in both digits")
	}
}

func TestThetaClassesPartitionEdges(t *testing.T) {
	// Σ class sizes must equal |E| for every recognized partial cube.
	graphs := []*graph.Graph{
		graph.Path(9),
		graph.Cycle(10),
		gridGraph(4, 5),
		gridGraph(3, 3),
	}
	for _, g := range graphs {
		l := mustRecognize(t, g)
		total := 0
		for _, class := range l.Classes {
			total += len(class)
		}
		if total != g.M() {
			t.Errorf("%v: θ-classes cover %d edges, want %d", g, total, g.M())
		}
	}
}

func TestGridRecognition(t *testing.T) {
	// An a×b grid has (a-1)+(b-1) θ-classes (row cuts + column cuts).
	cases := []struct{ a, b int }{{2, 2}, {3, 4}, {4, 4}, {5, 2}}
	for _, c := range cases {
		l := mustRecognize(t, gridGraph(c.a, c.b))
		want := c.a + c.b - 2
		if l.Dim != want {
			t.Errorf("grid %dx%d: dim = %d, want %d", c.a, c.b, l.Dim, want)
		}
	}
}

func TestRandomTreesArePartialCubes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(30)
		b := graph.NewBuilder(n)
		for v := 1; v < n; v++ {
			b.AddEdge(v, rng.Intn(v), 1)
		}
		g := b.Build()
		l := mustRecognize(t, g)
		if l.Dim != n-1 {
			t.Errorf("tree with %d vertices: dim = %d, want %d", n, l.Dim, n-1)
		}
	}
}

// TestRandomIsometricSubgraphsOfHypercubes grows random isometric
// subgraphs of Q_d (starting from a vertex and adding hypercube
// neighbors, keeping only vertex sets whose induced subgraph preserves
// Hamming distances) and checks that Recognize accepts each with a
// labeling of dimension ≤ d. This exercises the recognizer on partial
// cubes far less regular than grids/tori/trees.
func TestRandomIsometricSubgraphsOfHypercubes(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	accepted := 0
	for trial := 0; trial < 200 && accepted < 40; trial++ {
		d := 3 + rng.Intn(3)
		size := 3 + rng.Intn(1<<d-3)
		verts := growHypercubeSubset(rng, d, size)
		g, ok := inducedHypercubeSubgraph(verts, d)
		if !ok {
			continue // not isometric; skip
		}
		accepted++
		l, err := Recognize(g)
		if err != nil {
			t.Fatalf("trial %d: isometric subgraph of Q%d rejected: %v", trial, d, err)
		}
		if l.Dim > d {
			t.Fatalf("trial %d: dimension %d exceeds host hypercube %d", trial, l.Dim, d)
		}
		if err := l.Verify(g); err != nil {
			t.Fatal(err)
		}
	}
	if accepted < 10 {
		t.Fatalf("only %d isometric samples generated; test ineffective", accepted)
	}
}

// growHypercubeSubset BFS-grows a random connected vertex subset of Q_d.
func growHypercubeSubset(rng *rand.Rand, d, size int) []int {
	start := rng.Intn(1 << d)
	in := map[int]bool{start: true}
	frontier := []int{start}
	for len(in) < size && len(frontier) > 0 {
		i := rng.Intn(len(frontier))
		v := frontier[i]
		frontier[i] = frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		for j := 0; j < d; j++ {
			u := v ^ (1 << j)
			if !in[u] && rng.Intn(2) == 0 {
				in[u] = true
				frontier = append(frontier, u)
				if len(in) >= size {
					break
				}
			}
		}
	}
	out := make([]int, 0, len(in))
	for v := range in {
		out = append(out, v)
	}
	return out
}

// inducedHypercubeSubgraph builds the induced subgraph of Q_d on verts
// and reports whether it is connected and isometric (graph distance ==
// Hamming distance for all pairs).
func inducedHypercubeSubgraph(verts []int, d int) (*graph.Graph, bool) {
	idx := make(map[int]int, len(verts))
	for i, v := range verts {
		idx[v] = i
	}
	b := graph.NewBuilder(len(verts))
	for i, v := range verts {
		for j := 0; j < d; j++ {
			u := v ^ (1 << j)
			if k, ok := idx[u]; ok && k > i {
				b.AddEdge(i, k, 1)
			}
		}
	}
	g := b.Build()
	if !g.IsConnected() {
		return nil, false
	}
	// Isometry check against Hamming distances of the host labels.
	for i, v := range verts {
		dist := g.BFS(i)
		for k, u := range verts {
			h := popcount(uint(v ^ u))
			if int(dist[k]) != h {
				return nil, false
			}
		}
	}
	return g, true
}

func popcount(x uint) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

func TestVerifyCatchesBadLabeling(t *testing.T) {
	g := graph.Path(3)
	bad := &Labeling{Dim: 2, Labels: []bitvec.Label{0, 1, 2}}
	if err := bad.Verify(g); err == nil {
		t.Error("Verify should reject a non-isometric labeling")
	}
	dup := &Labeling{Dim: 2, Labels: []bitvec.Label{0, 1, 1}}
	if err := dup.Verify(g); err == nil {
		t.Error("Verify should reject duplicate labels")
	}
}

// gridGraph builds an a×b mesh without labels (for recognition tests).
func gridGraph(a, b int) *graph.Graph {
	bld := graph.NewBuilder(a * b)
	id := func(x, y int) int { return y*a + x }
	for y := 0; y < b; y++ {
		for x := 0; x < a; x++ {
			if x+1 < a {
				bld.AddEdge(id(x, y), id(x+1, y), 1)
			}
			if y+1 < b {
				bld.AddEdge(id(x, y), id(x, y+1), 1)
			}
		}
	}
	return bld.Build()
}

func BenchmarkRecognizeGrid16x16(b *testing.B) {
	g := gridGraph(16, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Recognize(g); err != nil {
			b.Fatal(err)
		}
	}
}
