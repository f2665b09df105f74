package mapping

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/topology"
)

func line(n int) *graph.Graph { return graph.Path(n) }

func randomGraph(n, extra int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(v, rng.Intn(v), 1)
	}
	for i := 0; i < extra; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			b.AddEdge(u, v, int64(1+rng.Intn(4)))
		}
	}
	return b.Build()
}

func TestCocoOnPath(t *testing.T) {
	// Path 0-1-2-3 mapped onto a 2x2 grid.
	topo, err := topology.Grid(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	ga := line(4)
	// Grid vertices: 0=(0,0) 1=(1,0) 2=(0,1) 3=(1,1).
	// Map path order 0,1,3,2 -> each hop is distance 1 => Coco = 3.
	assign := []int32{0, 1, 3, 2}
	if c := Coco(ga, assign, topo); c != 3 {
		t.Errorf("Coco = %d, want 3", c)
	}
	// Map 0,3,1,2: d(0,3)=2, d(3,1)=1, d(1,2)=2 => 5.
	assign = []int32{0, 3, 1, 2}
	if c := Coco(ga, assign, topo); c != 5 {
		t.Errorf("Coco = %d, want 5", c)
	}
}

func TestCocoRespectsWeights(t *testing.T) {
	topo, _ := topology.Grid(2, 2)
	ga := graph.NewBuilder(2).AddEdge(0, 1, 7).Build()
	assign := []int32{0, 3} // distance 2
	if c := Coco(ga, assign, topo); c != 14 {
		t.Errorf("Coco = %d, want 14", c)
	}
}

func TestCutAndDilation(t *testing.T) {
	topo, _ := topology.Grid(2, 2)
	ga := line(4)
	assign := []int32{0, 0, 3, 3}
	if c := Cut(ga, assign); c != 1 {
		t.Errorf("Cut = %d, want 1", c)
	}
	if d := Dilation(ga, assign, topo); d != 2 {
		t.Errorf("Dilation = %d, want 2", d)
	}
}

func TestValidate(t *testing.T) {
	topo, _ := topology.Grid(2, 2)
	ga := line(8)
	good := []int32{0, 0, 1, 1, 2, 2, 3, 3}
	if err := Validate(ga, good, topo, 0.03); err != nil {
		t.Errorf("balanced mapping rejected: %v", err)
	}
	bad := []int32{0, 0, 0, 0, 0, 0, 0, 3}
	if err := Validate(ga, bad, topo, 0.03); err == nil {
		t.Error("unbalanced mapping accepted")
	}
	outOfRange := []int32{0, 0, 1, 1, 2, 2, 3, 9}
	if err := Validate(ga, outOfRange, topo, -1); err == nil {
		t.Error("out-of-range PE accepted")
	}
	short := []int32{0}
	if err := Validate(ga, short, topo, -1); err == nil {
		t.Error("wrong-length assignment accepted")
	}
}

func TestComposeAndFromPartition(t *testing.T) {
	part := []int32{0, 0, 1, 1, 2, 2}
	nu := []int32{2, 0, 1}
	assign := Compose(part, nu)
	want := []int32{2, 2, 0, 0, 1, 1}
	for i := range want {
		if assign[i] != want[i] {
			t.Fatalf("Compose wrong at %d: %d != %d", i, assign[i], want[i])
		}
	}
	id := FromPartition(part)
	for i := range part {
		if id[i] != part[i] {
			t.Fatal("FromPartition must copy the partition")
		}
	}
	id[0] = 99
	if part[0] == 99 {
		t.Error("FromPartition must not alias its input")
	}
}

func TestGreedyBijections(t *testing.T) {
	// Both greedies must return bijections Vc -> Vp on every topology.
	topos := []*topology.Topology{}
	for _, mk := range []func() (*topology.Topology, error){
		func() (*topology.Topology, error) { return topology.Grid(4, 4) },
		func() (*topology.Topology, error) { return topology.Torus(4, 4) },
		func() (*topology.Topology, error) { return topology.Hypercube(4) },
	} {
		tp, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		topos = append(topos, tp)
	}
	gc := randomGraph(16, 40, 3)
	for _, tp := range topos {
		for _, algo := range []struct {
			name string
			fn   func(*graph.Graph, *topology.Topology) ([]int32, error)
		}{{"AllC", GreedyAllC}, {"Min", GreedyMin}} {
			nu, err := algo.fn(gc, tp)
			if err != nil {
				t.Fatalf("%s on %s: %v", algo.name, tp.Name, err)
			}
			seen := make(map[int32]bool)
			for _, pe := range nu {
				if pe < 0 || int(pe) >= tp.P() || seen[pe] {
					t.Fatalf("%s on %s: not a bijection: %v", algo.name, tp.Name, nu)
				}
				seen[pe] = true
			}
		}
	}
}

func TestGreedySizeMismatch(t *testing.T) {
	tp, _ := topology.Grid(4, 4)
	gc := randomGraph(5, 5, 1)
	if _, err := GreedyAllC(gc, tp); err == nil {
		t.Error("size mismatch should fail")
	}
	if _, err := GreedyMin(gc, tp); err == nil {
		t.Error("size mismatch should fail")
	}
}

func TestGreedyBeatsRandomMapping(t *testing.T) {
	// On a communication graph with strong locality, greedy construction
	// should beat a random bijection on Coco.
	tp, _ := topology.Grid(4, 4)
	// Gc: a 4x4 grid itself (IDENTITY onto the topology would be optimal).
	bld := graph.NewBuilder(16)
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			v := y*4 + x
			if x+1 < 4 {
				bld.AddEdge(v, v+1, 10)
			}
			if y+1 < 4 {
				bld.AddEdge(v, v+4, 10)
			}
		}
	}
	gc := bld.Build()
	part := make([]int32, 16)
	for i := range part {
		part[i] = int32(i)
	}
	rng := rand.New(rand.NewSource(5))
	worst := int64(0)
	for trial := 0; trial < 10; trial++ {
		perm := rng.Perm(16)
		nu := make([]int32, 16)
		for i, p := range perm {
			nu[i] = int32(p)
		}
		if c := Coco(gc, Compose(part, nu), tp); c > worst {
			worst = c
		}
	}
	for _, algo := range []struct {
		name string
		fn   func(*graph.Graph, *topology.Topology) ([]int32, error)
	}{{"AllC", GreedyAllC}, {"Min", GreedyMin}} {
		nu, err := algo.fn(gc, tp)
		if err != nil {
			t.Fatal(err)
		}
		c := Coco(gc, Compose(part, nu), tp)
		if c >= worst {
			t.Errorf("%s: Coco %d not better than worst random %d", algo.name, c, worst)
		}
	}
}

func TestDRBProducesValidBalancedMapping(t *testing.T) {
	ga := randomGraph(600, 1800, 7)
	for _, mk := range []func() (*topology.Topology, error){
		func() (*topology.Topology, error) { return topology.Grid(4, 4) },
		func() (*topology.Topology, error) { return topology.Hypercube(4) },
		func() (*topology.Topology, error) { return topology.Torus(4, 6) },
	} {
		tp, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		assign, err := DRB(ga, tp, DRBConfig{Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		// DRB guarantees per-level proportionality, allow a looser global
		// bound here (the paper's pipeline re-balances via TIMER's labels).
		if err := Validate(ga, assign, tp, 0.35); err != nil {
			t.Errorf("DRB on %s: %v", tp.Name, err)
		}
		used := make(map[int32]bool)
		for _, pe := range assign {
			used[pe] = true
		}
		if len(used) != tp.P() {
			t.Errorf("DRB on %s: only %d of %d PEs used", tp.Name, len(used), tp.P())
		}
	}
}

func TestDRBRejectsTinyGraph(t *testing.T) {
	tp, _ := topology.Grid(4, 4)
	if _, err := DRB(line(3), tp, DRBConfig{}); err == nil {
		t.Error("DRB with |Va| < |Vp| should fail")
	}
}

func TestDRBBeatsRandomOnCoco(t *testing.T) {
	ga := randomGraph(800, 2400, 9)
	tp, _ := topology.Grid(4, 4)
	assign, err := DRB(ga, tp, DRBConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	drbCoco := Coco(ga, assign, tp)
	rng := rand.New(rand.NewSource(8))
	randAssign := make([]int32, ga.N())
	for v := range randAssign {
		randAssign[v] = int32(v % tp.P())
	}
	rng.Shuffle(len(randAssign), func(i, j int) {
		randAssign[i], randAssign[j] = randAssign[j], randAssign[i]
	})
	randCoco := Coco(ga, randAssign, tp)
	if drbCoco >= randCoco {
		t.Errorf("DRB Coco %d not better than random %d", drbCoco, randCoco)
	}
}

func TestEndToEndPipelineC2(t *testing.T) {
	// The full c2 pipeline: partition -> identity mapping -> metrics.
	ga := randomGraph(400, 1200, 13)
	tp, _ := topology.Grid(4, 4)
	res, err := partition.Partition(ga, partition.Config{K: tp.P(), Epsilon: 0.03, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if !partition.IsBalanced(ga, res.Part, tp.P(), 0.03) {
		t.Fatal("partition unbalanced")
	}
	assign := FromPartition(res.Part)
	if err := Validate(ga, assign, tp, 0.03); err != nil {
		t.Fatal(err)
	}
	if Coco(ga, assign, tp) <= 0 {
		t.Error("Coco should be positive for a non-trivial mapping")
	}
	gc := CommGraph(ga, res.Part, tp.P())
	if gc.N() != tp.P() {
		t.Errorf("comm graph has %d vertices, want %d", gc.N(), tp.P())
	}
}

func TestBlockSizes(t *testing.T) {
	ga := line(6)
	s := BlockSizes(ga, []int32{0, 0, 1, 1, 1, 3}, 4)
	want := []int64{2, 3, 0, 1}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("BlockSizes[%d] = %d, want %d", i, s[i], want[i])
		}
	}
}
