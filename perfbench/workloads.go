package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/netgen"
)

// workload is one named traffic mix. Its job list is a pure function of
// the workload seed: job i is spec(i), and every client takes the next
// index in order.
type workload struct {
	name string
	seed int64
	// clients is the number of closed-loop client goroutines.
	clients int
	// service routes the jobs through mapclient → maprouter → mapd
	// replicas instead of an in-process engine.
	service bool
	// spec returns job i of the list; warmup the jobs set-up runs.
	spec   func(i int) engine.JobSpec
	warmup []engine.JobSpec
	// checkStride: one finished job in checkStride (chosen from the
	// seed) is recomputed by a sequential Engine.Run and compared.
	checkStride int
	// generateMS times the netgen calls that made the workload's inline
	// graphs, the service workload's share of netgen.generate_ms.
	generateMS []float64
}

// mix is the splitmix64 finalizer, used to derive independent values
// from (seed, stream, index) without sharing one generator between
// clients.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// derive returns a positive int64 (never 0, which specs read as
// "default") determined by seed, a stream tag and an index.
func derive(seed int64, stream uint64, i int) int64 {
	v := int64(mix(mix(uint64(seed)^stream*0x100000001b3)+uint64(i)) >> 2)
	if v == 0 {
		v = 1
	}
	return v
}

// Streams of derive, one per kind of derived value.
const (
	streamGraph uint64 = iota + 1
	streamPart
	streamJob
	streamPick
	streamWarm
	streamCheck
)

// cellOf returns the cell (input combination) of job i among n cells.
// The list is stratified: every block of n consecutive jobs holds each
// cell once, in an order the seed shuffles, so two seeds' runs of equal
// length differ in job order and job seeds, not in their mix.
func cellOf(seed int64, i, n int) int {
	perm := rand.New(rand.NewSource(derive(seed, streamPick, i/n))).Perm(n)
	return perm[i%n]
}

func newWorkload(name string, seed int64, nproc int) (*workload, error) {
	var w *workload
	var err error
	switch name {
	case "timer-heavy":
		w = timerHeavy(seed, nproc)
	case "base-heavy":
		w = baseHeavy(seed)
	case "service":
		w, err = serviceWorkload(seed, nproc)
	default:
		err = fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	if err != nil {
		return nil, err
	}
	w.seed = seed
	return w, nil
}

// workloadNames lists the workloads, in BENCHMARK.json order.
var workloadNames = []string{"timer-heavy", "base-heavy", "service"}

// timerHeavy is the paper's Section 7 setting at quarter scale: NH = 50
// on partitions that warm-up puts into the artifact cache, so timed jobs
// spend their time in TIMER.
func timerHeavy(seed int64, nproc int) *workload {
	nets := []string{"p2p-Gnutella", "email-EuAll", "PGPgiantcompo", "as-22july06"}
	topos := []string{"grid:16x16", "torus:16x16", "hypercube:8", "grid:8x8x8", "torus:8x8x8"}
	cases := []engine.Case{engine.C2Identity, engine.C3GreedyAllC, engine.C4GreedyMin}
	base := func(n int, topo string, c engine.Case) engine.JobSpec {
		return engine.JobSpec{
			Graph:         engine.GraphSpec{Network: nets[n], Scale: 0.25, Seed: derive(seed, streamGraph, n)},
			Topology:      topo,
			Case:          c,
			PartitionSeed: derive(seed, streamPart, n),
		}
	}
	w := &workload{name: "timer-heavy", clients: nproc, checkStride: 8}
	w.spec = func(i int) engine.JobSpec {
		k := cellOf(seed, i, len(nets)*len(topos)*len(cases))
		s := base(k/(len(topos)*len(cases)), topos[k/len(cases)%len(topos)], cases[k%len(cases)])
		s.Seed = derive(seed, streamJob, i)
		s.NumHierarchies = 50
		return s
	}
	for n := range nets {
		for t, topo := range topos {
			s := base(n, topo, cases[(n+t)%len(cases)])
			s.Seed = derive(seed, streamWarm, len(w.warmup))
			s.NumHierarchies = 1
			w.warmup = append(w.warmup, s)
		}
	}
	return w
}

// baseHeavy loads the base stages: few hierarchies, a fresh partition
// per job, 1024-PE greedy scans and DRB, with one client so jobs widen
// onto the idle core.
func baseHeavy(seed int64) *workload {
	type cell struct {
		net   string
		scale float64
		topo  string
		c     engine.Case
	}
	cells := []cell{
		{"p2p-Gnutella", 0.5, "grid:32x32", engine.C4GreedyMin},
		{"PGPgiantcompo", 0.5, "torus:16x16", engine.C1SCOTCH},
		{"email-EuAll", 0.25, "grid:16x16", engine.C3GreedyAllC},
	}
	base := func(k int) engine.JobSpec {
		c := cells[k]
		return engine.JobSpec{
			Graph:          engine.GraphSpec{Network: c.net, Scale: c.scale, Seed: derive(seed, streamGraph, k)},
			Topology:       c.topo,
			Case:           c.c,
			NumHierarchies: 4,
		}
	}
	w := &workload{name: "base-heavy", clients: 1, checkStride: 4}
	w.spec = func(i int) engine.JobSpec {
		s := base(cellOf(seed, i, len(cells)))
		s.Seed = derive(seed, streamJob, i)
		return s
	}
	for k := range cells {
		s := base(k)
		s.Seed = derive(seed, streamWarm, k)
		w.warmup = append(w.warmup, s)
	}
	return w
}

// serviceWorkload sends users' own task graphs inline through the fleet:
// two graphs generated here from the seed, re-sent with every job, so
// each request carries tens of kilobytes of edges.
func serviceWorkload(seed int64, nproc int) (*workload, error) {
	nets := []string{"p2p-Gnutella", "PGPgiantcompo"}
	topos := []string{"grid:4x4", "hypercube:4"}
	graphs := make([]engine.GraphSpec, len(nets))
	var generateMS []float64
	for n, name := range nets {
		t0 := time.Now()
		g, err := inlineGraph(name, 0.1, derive(seed, streamGraph, n))
		if err != nil {
			return nil, err
		}
		generateMS = append(generateMS, ms(int64(time.Since(t0))))
		graphs[n] = g
	}
	base := func(n, t int) engine.JobSpec {
		return engine.JobSpec{Graph: graphs[n], Topology: topos[t], Case: engine.C2Identity, NumHierarchies: 4}
	}
	w := &workload{name: "service", clients: nproc, service: true, checkStride: 4, generateMS: generateMS}
	w.spec = func(i int) engine.JobSpec {
		k := cellOf(seed, i, len(nets)*len(topos))
		s := base(k/len(topos), k%len(topos))
		s.Seed = derive(seed, streamJob, i)
		return s
	}
	// Twelve rounds over the cells: enough real work that set-up time is
	// not dominated by a fresh fleet's first requests, and moves with
	// the host about as much as the timed phase does.
	for round := 0; round < 12; round++ {
		for n := range nets {
			for t := range topos {
				s := base(n, t)
				s.Seed = derive(seed, streamWarm, len(w.warmup))
				w.warmup = append(w.warmup, s)
			}
		}
	}
	return w, nil
}

// inlineGraph generates a catalog network and returns it as an inline
// edge list, each undirected edge once.
func inlineGraph(name string, scale float64, seed int64) (engine.GraphSpec, error) {
	ns, err := netgen.ByName(name)
	if err != nil {
		return engine.GraphSpec{}, err
	}
	g := ns.Generate(scale, seed)
	edges := make([][3]int64, 0, g.M())
	for u := 0; u < g.N(); u++ {
		nbrs, ws := g.Neighbors(u)
		for k, v := range nbrs {
			if int(v) > u {
				edges = append(edges, [3]int64{int64(u), int64(v), ws[k]})
			}
		}
	}
	return engine.GraphSpec{N: g.N(), Edges: edges}, nil
}

// checked reports whether finished job i is in the seed's check sample.
func (w *workload) checked(i int) bool {
	return derive(w.seed, streamCheck, i)%int64(w.checkStride) == 0
}
