package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/netgen"
	"repro/internal/partition"
	"repro/internal/topology"
)

// replay re-runs jobs single-threaded through the public calls the
// engine's pipeline makes, timing each call. Its caches and scratch
// arenas persist across jobs as a worker's do, so every call after the
// first of its kind runs warm.
type replay struct {
	rec    *recorder
	topos  *engine.TopologyCache
	built  map[string]bool
	graphs map[string]*graph.Graph
	base   *mapping.Scratch
	timer  *core.Scratch

	// Per-call times in ms (ns for nsPerH), and TIMER's decisions.
	topoBuild, generate, part, mapMS, drb, eval, enhance, nsPerH []float64
	kept, hierarchies, swaps, jobs                               int
}

func newReplay(rec *recorder) *replay {
	return &replay{
		rec:    rec,
		topos:  engine.NewTopologyCache(),
		built:  make(map[string]bool),
		graphs: make(map[string]*graph.Graph),
		base:   mapping.NewScratch(),
		timer:  core.NewScratch(),
	}
}

// timed runs f as a span of job tag and returns its duration in ms.
func (r *replay) timed(name string, tag int, f func()) float64 {
	t0, s0 := time.Now(), r.rec.now()
	f()
	d := ms(int64(time.Since(t0)))
	r.rec.add(name, s0, tag)
	return d
}

// withDefaults resolves a spec's defaults as engine.JobSpec does.
func withDefaults(s engine.JobSpec) engine.JobSpec {
	if s.Case == engine.CaseUnspecified {
		s.Case = engine.C2Identity
	}
	if s.Epsilon <= 0 {
		s.Epsilon = 0.03
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.NumHierarchies <= 0 {
		s.NumHierarchies = core.DefaultNumHierarchies
	}
	return s
}

// graphOf materializes the spec's graph once per distinct graph: a
// catalog network through netgen, an inline edge list through the
// graph builder.
func (r *replay) graphOf(s engine.JobSpec, tag int) (*graph.Graph, error) {
	gs := s.Graph
	var key string
	if gs.Network != "" {
		seed := gs.Seed
		if seed == 0 {
			seed = s.Seed
		}
		key = fmt.Sprintf("net:%s@%g#%d", gs.Network, gs.Scale, seed)
		if g, ok := r.graphs[key]; ok {
			return g, nil
		}
		ns, err := netgen.ByName(gs.Network)
		if err != nil {
			return nil, err
		}
		var g *graph.Graph
		r.generate = append(r.generate, r.timed("netgen.Generate", tag, func() { g = ns.Generate(gs.Scale, seed) }))
		r.graphs[key] = g
		return g, nil
	}
	if len(gs.Edges) == 0 {
		return nil, fmt.Errorf("replay needs a network or inline edges")
	}
	key = fmt.Sprintf("inline:%p", &gs.Edges[0])
	if g, ok := r.graphs[key]; ok {
		return g, nil
	}
	var g *graph.Graph
	r.timed("graph.Build", tag, func() {
		n := gs.N
		for _, e := range gs.Edges {
			n = max(n, int(e[0])+1, int(e[1])+1)
		}
		b := graph.NewBuilder(n)
		for _, e := range gs.Edges {
			w := e[2]
			if w <= 0 {
				w = 1
			}
			b.AddEdge(int(e[0]), int(e[1]), w)
		}
		g = b.Build()
	})
	r.graphs[key] = g
	return g, nil
}

// job replays one spec and returns its quality fields in the shape of
// JobResult.StripPerf. Every job also runs DRB on its inputs, so DRB's
// cost is measured on workloads whose jobs start from a partition.
func (r *replay) job(spec engine.JobSpec, tag int) (*engine.JobResult, error) {
	s := withDefaults(spec)
	var topo *topology.Topology
	var err error
	if r.built[s.Topology] {
		topo, err = r.topos.Get(s.Topology)
	} else {
		// The cache's first Get of a spec builds the topology.
		r.built[s.Topology] = true
		r.topoBuild = append(r.topoBuild, r.timed("topology.Get", tag, func() { topo, err = r.topos.Get(s.Topology) }))
	}
	if err != nil {
		return nil, err
	}
	ga, err := r.graphOf(s, tag)
	if err != nil {
		return nil, err
	}
	if ga.N() <= topo.P() {
		return nil, fmt.Errorf("graph has %d vertices for %d PEs", ga.N(), topo.P())
	}
	res := &engine.JobResult{Topology: topo.Name, PEs: topo.P(), GraphN: ga.N(), GraphM: ga.M(), Case: s.Case}

	var drbAssign []int32
	r.drb = append(r.drb, r.timed("mapping.DRB", tag, func() {
		drbAssign, err = r.base.DRB(ga, topo, mapping.DRBConfig{Epsilon: s.Epsilon, Seed: s.Seed, Fast: true})
	}))
	if err != nil {
		return nil, err
	}
	assign := drbAssign
	if s.Case != engine.C1SCOTCH {
		pseed := s.PartitionSeed
		if pseed == 0 {
			pseed = s.Seed
		}
		var part *partition.Result
		r.part = append(r.part, r.timed("partition.Partition", tag, func() {
			part, err = partition.Partition(ga, partition.Config{K: topo.P(), Epsilon: s.Epsilon, Seed: pseed, Scratch: r.base.Partition})
		}))
		if err != nil {
			return nil, err
		}
		r.mapMS = append(r.mapMS, r.timed("mapping.map", tag, func() {
			switch s.Case {
			case engine.C2Identity:
				assign = mapping.FromPartition(part.Part)
			case engine.C3GreedyAllC, engine.C4GreedyMin:
				gc := r.base.CommGraph(ga, part.Part, topo.P())
				construct := r.base.GreedyAllC
				if s.Case == engine.C4GreedyMin {
					construct = r.base.GreedyMin
				}
				var nu []int32
				if nu, err = construct(gc, topo); err == nil {
					assign = mapping.Compose(part.Part, nu)
				}
			default:
				err = fmt.Errorf("replay does not cover case %s", s.Case)
			}
		}))
		if err != nil {
			return nil, err
		}
	}

	before := r.timed("mapping.eval", tag, func() {
		res.CutBefore = mapping.Cut(ga, assign)
		res.CocoBefore = mapping.Coco(ga, assign, topo)
		res.DilationBefore = mapping.Dilation(ga, assign, topo)
		res.ImbalanceBefore = mapping.Imbalance(ga, assign, topo.P())
	})
	var tr *core.Result
	enh := r.timed("core.Enhance", tag, func() {
		tr, err = core.Enhance(ga, topo, assign, core.Options{
			NumHierarchies: s.NumHierarchies,
			Seed:           s.Seed,
			Workers:        s.TimerWorkers,
			SwapRounds:     s.SwapRounds,
			Scratch:        r.timer,
		})
	})
	if err != nil {
		return nil, err
	}
	after := r.timed("mapping.eval", tag, func() {
		res.CutAfter = mapping.Cut(ga, tr.Assign)
		res.CocoAfter = mapping.Coco(ga, tr.Assign, topo)
		res.DilationAfter = mapping.Dilation(ga, tr.Assign, topo)
		res.ImbalanceAfter = mapping.Imbalance(ga, tr.Assign, topo.P())
	})
	res.HierarchiesKept = tr.HierarchiesKept
	res.SwapsApplied = tr.SwapsApplied
	if res.CocoBefore > 0 {
		res.CocoQuotient = float64(res.CocoAfter) / float64(res.CocoBefore)
	}

	r.eval = append(r.eval, before+after)
	r.enhance = append(r.enhance, enh)
	r.nsPerH = append(r.nsPerH, enh*1e6/float64(s.NumHierarchies))
	r.kept += tr.HierarchiesKept
	r.hierarchies += s.NumHierarchies
	r.swaps += tr.SwapsApplied
	r.jobs++
	return res, nil
}
