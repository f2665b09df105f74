package graph

import "testing"

func fpGraph(edges [][3]int64, n int) *Graph {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(int(e[0]), int(e[1]), e[2])
	}
	return b.Build()
}

func TestFingerprintDeterministicAndContentAddressed(t *testing.T) {
	edges := [][3]int64{{0, 1, 2}, {1, 2, 1}, {2, 3, 5}, {3, 0, 1}}
	g := fpGraph(edges, 4)
	f1, f2 := g.Fingerprint(), g.Fingerprint()
	if f1 != f2 {
		t.Fatalf("fingerprint not deterministic: %v vs %v", f1, f2)
	}
	if f1.IsZero() {
		t.Fatal("fingerprint of a non-empty graph is zero")
	}
	if rebuilt := fpGraph(edges, 4); rebuilt.Fingerprint() != f1 {
		t.Error("structurally identical rebuild fingerprints differently")
	}
}

func TestFingerprintSeparatesNearIdenticalGraphs(t *testing.T) {
	base := [][3]int64{{0, 1, 2}, {1, 2, 1}, {2, 3, 5}, {3, 0, 1}}
	g := fpGraph(base, 4)
	variants := map[string]*Graph{
		"edge weight changed": fpGraph([][3]int64{{0, 1, 2}, {1, 2, 1}, {2, 3, 5}, {3, 0, 2}}, 4),
		"edge rewired":        fpGraph([][3]int64{{0, 1, 2}, {1, 2, 1}, {2, 3, 5}, {3, 1, 1}}, 4),
		"edge dropped":        fpGraph(base[:3], 4),
		"isolated vertex":     fpGraph(base, 5),
	}
	for name, h := range variants {
		if h.Fingerprint() == g.Fingerprint() {
			t.Errorf("%s: fingerprint collides with the base graph", name)
		}
	}
	// Vertex weights participate too (they change partition results).
	b := NewBuilder(4)
	for _, e := range base {
		b.AddEdge(int(e[0]), int(e[1]), e[2])
	}
	b.SetVertexWeight(2, 7)
	if b.Build().Fingerprint() == g.Fingerprint() {
		t.Error("vertex-weight change not reflected in fingerprint")
	}
}

func TestFingerprintString(t *testing.T) {
	f := Fingerprint{Hi: 0xdead, Lo: 0xbeef}
	if got, want := f.String(), "000000000000dead000000000000beef"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if !(Fingerprint{}).IsZero() {
		t.Error("zero fingerprint not IsZero")
	}
}

func TestFootprintBytes(t *testing.T) {
	g := fpGraph([][3]int64{{0, 1, 1}, {1, 2, 1}}, 3)
	// xadj: 4 entries, adj/ew: 4 half-edges, vw: 3.
	want := int64(4*4 + 4*4 + 4*8 + 3*8)
	if got := g.FootprintBytes(); got != want {
		t.Errorf("FootprintBytes() = %d, want %d", got, want)
	}
}

func BenchmarkFingerprint(b *testing.B) {
	// A mid-sized synthetic ring-with-chords graph, ~64k half-edges.
	n := 16384
	bld := NewBuilder(n)
	for v := 0; v < n; v++ {
		bld.AddEdge(v, (v+1)%n, 1)
		bld.AddEdge(v, (v+7)%n, 2)
	}
	g := bld.Build()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if g.Fingerprint().IsZero() {
			b.Fatal("zero fingerprint")
		}
	}
}
