package graph

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// sortMergeBuild is the construction Build replaced, kept as its
// oracle: materialize both directions of every edge, sort the records
// by (source, destination), merge duplicates by summing weights, and
// lay the result out as CSR.
func sortMergeBuild(b *Builder) *Graph {
	type edgeRec struct {
		src, dst int32
		w        int64
	}
	n := b.n
	recs := make([]edgeRec, 0, 2*len(b.us))
	for i := range b.us {
		recs = append(recs,
			edgeRec{b.us[i], b.vs[i], b.ws[i]},
			edgeRec{b.vs[i], b.us[i], b.ws[i]})
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].src != recs[j].src {
			return recs[i].src < recs[j].src
		}
		return recs[i].dst < recs[j].dst
	})
	out := recs[:0]
	for _, r := range recs {
		if len(out) > 0 && out[len(out)-1].src == r.src && out[len(out)-1].dst == r.dst {
			out[len(out)-1].w += r.w
			continue
		}
		out = append(out, r)
	}
	recs = out

	g := &Graph{
		xadj: make([]int32, n+1),
		adj:  make([]int32, len(recs)),
		ew:   make([]int64, len(recs)),
		vw:   b.vw,
		m:    len(recs) / 2,
	}
	if g.vw == nil {
		g.vw = make([]int64, n)
		for i := range g.vw {
			g.vw[i] = 1
		}
	}
	for i, r := range recs {
		g.xadj[r.src+1]++
		g.adj[i] = r.dst
		g.ew[i] = r.w
	}
	for v := 0; v < n; v++ {
		g.xadj[v+1] += g.xadj[v]
	}
	for _, w := range g.vw {
		g.tvw += w
	}
	for i, r := range recs {
		if r.src < r.dst {
			g.tew += g.ew[i]
		}
	}
	return g
}

// builderOp is one recorded Builder call: an edge, or (vertex weight
// op) a SetVertexWeight of vertex u to w.
type builderOp struct {
	u, v   int
	w      int64
	weight bool
}

// randomMultigraphOps draws a random Builder call sequence over n
// vertices: parallel edges in both orientations, self-loops, vertex
// weights on some graphs, and vertices that no edge touches.
func randomMultigraphOps(rng *rand.Rand, n int) []builderOp {
	var ops []builderOp
	if n == 0 {
		return ops
	}
	// Edges avoid the top quarter of the ids on some graphs, so the
	// isolated vertices are not only the ones chance leaves out.
	span := n
	if rng.Intn(3) == 0 && n > 3 {
		span = n - n/4
	}
	edges := rng.Intn(3*n + 1)
	for i := 0; i < edges; i++ {
		u, v := rng.Intn(span), rng.Intn(span)
		if rng.Intn(10) == 0 {
			v = u // self-loop
		}
		w := int64(1 + rng.Intn(9))
		ops = append(ops, builderOp{u: u, v: v, w: w})
		switch rng.Intn(6) {
		case 0: // the same pair again
			ops = append(ops, builderOp{u: u, v: v, w: int64(1 + rng.Intn(9))})
		case 1: // the same pair, reversed
			ops = append(ops, builderOp{u: v, v: u, w: int64(1 + rng.Intn(9))})
		}
	}
	if rng.Intn(2) == 0 {
		for i := rng.Intn(n + 1); i > 0; i-- {
			ops = append(ops, builderOp{u: rng.Intn(n), w: int64(rng.Intn(50)), weight: true})
		}
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

func replayOps(n int, ops []builderOp) *Builder {
	b := NewBuilder(n)
	for _, op := range ops {
		if op.weight {
			b.SetVertexWeight(op.u, op.w)
		} else {
			b.AddEdge(op.u, op.v, op.w)
		}
	}
	return b
}

// TestBuildMatchesSortMerge checks Build against the sort-and-merge
// construction it replaced on random multigraphs: equal CSR arrays,
// counts, totals and fingerprint, with the adjacency and weight arrays
// allocated at exactly their length.
func TestBuildMatchesSortMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const trials = 3000
	merged := 0
	for trial := 0; trial < trials; trial++ {
		n := rng.Intn(40)
		if trial%10 == 0 {
			n = rng.Intn(400)
		}
		ops := randomMultigraphOps(rng, n)
		got := replayOps(n, ops).Build()
		want := sortMergeBuild(replayOps(n, ops))
		if !slices.Equal(got.xadj, want.xadj) || !slices.Equal(got.adj, want.adj) ||
			!slices.Equal(got.ew, want.ew) || !slices.Equal(got.vw, want.vw) {
			t.Fatalf("trial %d (n=%d): CSR differs\ngot  xadj=%v adj=%v ew=%v vw=%v\nwant xadj=%v adj=%v ew=%v vw=%v",
				trial, n, got.xadj, got.adj, got.ew, got.vw, want.xadj, want.adj, want.ew, want.vw)
		}
		if got.M() != want.M() || got.TotalVertexWeight() != want.TotalVertexWeight() ||
			got.TotalEdgeWeight() != want.TotalEdgeWeight() {
			t.Fatalf("trial %d: m=%d tvw=%d tew=%d, want m=%d tvw=%d tew=%d", trial,
				got.M(), got.TotalVertexWeight(), got.TotalEdgeWeight(),
				want.M(), want.TotalVertexWeight(), want.TotalEdgeWeight())
		}
		if got.Fingerprint() != want.Fingerprint() {
			t.Fatalf("trial %d: fingerprint %v, want %v", trial, got.Fingerprint(), want.Fingerprint())
		}
		if cap(got.adj) != len(got.adj) || cap(got.ew) != len(got.ew) {
			t.Fatalf("trial %d: adj len %d cap %d, ew len %d cap %d; want len == cap",
				trial, len(got.adj), cap(got.adj), len(got.ew), cap(got.ew))
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		edges := 0
		for _, op := range ops {
			if !op.weight && op.u != op.v {
				edges++
			}
		}
		if got.M() < edges {
			merged++
		}
	}
	// The duplicate merge must actually be exercised.
	if merged < trials/2 {
		t.Fatalf("only %d of %d graphs had parallel edges to merge", merged, trials)
	}
}

// BenchmarkBuild builds a 1,068-vertex, 2,133-edge graph (the size of
// an inline PGPgiantcompo@0.1 job) by transposition and by the
// sort-and-merge construction it replaced.
func BenchmarkBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	const n, m = 1068, 2133
	ops := make([]builderOp, 0, m)
	for v := 1; v < n; v++ {
		ops = append(ops, builderOp{u: v, v: rng.Intn(v), w: 1})
	}
	for len(ops) < m {
		ops = append(ops, builderOp{u: rng.Intn(n), v: rng.Intn(n), w: 1})
	}
	// Neither construction writes to the builder, and it sets no vertex
	// weight for the graph to alias, so one builder serves every run.
	bld := replayOps(n, ops)
	for _, bc := range []struct {
		name  string
		build func(*Builder) *Graph
	}{{"transpose", (*Builder).Build}, {"sortmerge", sortMergeBuild}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				bc.build(bld)
			}
		})
	}
}
