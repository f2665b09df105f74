package mapping

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/topology"
)

// lumpyGraph is a random connected graph with a few more vertices than
// a topology has PEs and lumpy vertex weights, so DRB's bisections often
// leave a subtree a single vertex — the case where a spawned right half
// guesses its first seed index wrong.
func lumpyGraph(n int, seed int64) *graph.Graph {
	r := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(v, r.Intn(v), int64(1+r.Intn(5)))
	}
	for i := 0; i < n; i++ {
		if u, v := r.Intn(n), r.Intn(n); u != v {
			b.AddEdge(u, v, int64(1+r.Intn(3)))
		}
	}
	for v := 0; v < n; v++ {
		switch r.Intn(6) {
		case 0:
			b.SetVertexWeight(v, int64(5+r.Intn(40)))
		case 1:
			b.SetVertexWeight(v, int64(2+r.Intn(4)))
		}
	}
	return b.Build()
}

// TestDRBSpawnEquivalence pins wide DRB's contract: with right halves
// dispatched onto other goroutines under every acceptance pattern of
// the Spawn hook, the mapping equals the sequential one — on the smoke
// graph and on near-P graphs with lumpy weights, where spawned halves
// start from wrong seed indices and are recomputed.
func TestDRBSpawnEquivalence(t *testing.T) {
	type instance struct {
		name string
		g    *graph.Graph
		topo *topology.Topology
		fast bool
	}
	ga, _, grid8 := benchInstance(t)
	insts := []instance{{"p2p/grid8x8", ga, grid8, true}, {"p2p/grid8x8/full", ga, grid8, false}}
	grid4, err := topology.Grid(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	cube, err := topology.Hypercube(5)
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range []*topology.Topology{grid4, cube} {
		for extra := 1; extra <= 12; extra += 3 {
			for seed := int64(1); seed <= 3; seed++ {
				g := lumpyGraph(tp.P()+extra, seed*100+int64(extra))
				insts = append(insts, instance{tp.Name, g, tp, seed%2 == 0})
			}
		}
	}

	var wg sync.WaitGroup
	var calls atomic.Int64
	spawners := map[string]func(func()) bool{
		"always": func(fn func()) bool {
			wg.Add(1)
			go func() { defer wg.Done(); fn() }()
			return true
		},
		"never": func(func()) bool { return false },
		"alternate": func(fn func()) bool {
			if calls.Add(1)%2 == 0 {
				return false
			}
			wg.Add(1)
			go func() { defer wg.Done(); fn() }()
			return true
		},
	}
	sc := NewScratch()
	for i, in := range insts {
		cfg := DRBConfig{Epsilon: 0.03, Seed: int64(i + 1), Fast: in.fast}
		want, err := DRB(in.g, in.topo, cfg)
		if err != nil {
			t.Fatalf("%s #%d sequential: %v", in.name, i, err)
		}
		for sname, spawn := range spawners {
			wcfg := cfg
			wcfg.Spawn = spawn
			got, err := sc.DRB(in.g, in.topo, wcfg)
			wg.Wait()
			if err != nil {
				t.Fatalf("%s #%d %s: %v", in.name, i, sname, err)
			}
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("%s #%d (n=%d) %s: assign[%d] = %d, want %d",
						in.name, i, in.g.N(), sname, v, got[v], want[v])
				}
			}
		}
	}
}
