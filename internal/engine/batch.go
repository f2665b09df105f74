package engine

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/netgen"
	"repro/internal/topology"
)

// BatchSpec fans a set of graphs out over a set of topologies: every
// (graph, topology) pair becomes Reps jobs, all flowing through the
// engine's worker pool. One graph × many topologies answers "where does
// my application map best"; many graphs × one topology sweeps a
// workload suite over a machine (the paper's Section 7 evaluation is
// exactly this shape, once per case).
type BatchSpec struct {
	// Graphs are the application graphs (at least one).
	Graphs []GraphSpec `json:"graphs"`
	// Topologies are canonical topology specs (at least one).
	Topologies []string `json:"topologies"`

	// Case is the initial-mapping case shared by every job.
	Case Case `json:"case"`
	// Reps runs each (graph, topology) pair this many times with
	// derived seeds (default 1).
	Reps int `json:"reps,omitempty"`

	// Epsilon, Seed and NumHierarchies are forwarded into every
	// generated JobSpec (Seed after per-job derivation — see batchSeed).
	Epsilon        float64 `json:"epsilon,omitempty"`
	Seed           int64   `json:"seed,omitempty"`
	NumHierarchies int     `json:"num_hierarchies,omitempty"`

	// SharedPartition derives every job's partition seed from (batch
	// seed, rep) only — the paper's experimental shape, where cases
	// c2–c4 of one repetition are compared on the *same* partition of
	// the same graph and only the block→PE assignment differs. Combined
	// with the engine's artifact cache this computes each repetition's
	// partition once instead of once per case. Off by default: the
	// committed default folds the case into every seed (batchSeed), so
	// existing batches stay byte-identical.
	SharedPartition bool `json:"shared_partition,omitempty"`

	// SkipTooSmall drops (graph, topology) pairs where the graph has no
	// more vertices than the topology has PEs, instead of failing them.
	SkipTooSmall bool `json:"skip_too_small,omitempty"`
}

// batchSeed derives the seed of repetition rep of a batch with base
// seed. The bench harness runs each matrix scenario as a batch, so its
// jobs carry these seeds too.
func batchSeed(base int64, rep int, c Case) int64 {
	return base + int64(rep)*7919 + int64(c.orDefault()-C1SCOTCH)*104729
}

// sharedPartitionSeed derives the case-independent partition seed of
// repetition rep in SharedPartition mode. It equals batchSeed's value
// for c1 (case offset zero), so the shared partition of a rep is
// exactly the one the default mode would compute for that rep's first
// case — same seed algebra, minus the per-case spreading that the
// paper's shared-partition comparison deliberately avoids.
func sharedPartitionSeed(base int64, rep int) int64 {
	return base + int64(rep)*7919
}

// jobCount returns the number of jobs b expands to and the repetition
// count behind it. It fails when b lacks a graph or a topology, or
// expands to more than limit jobs; the product is bounded factor by
// factor, so no batch can wrap it past the check.
func (b BatchSpec) jobCount(limit int) (jobs, reps int, err error) {
	if len(b.Graphs) == 0 || len(b.Topologies) == 0 {
		return 0, 0, fmt.Errorf("engine: batch needs at least one graph and one topology")
	}
	reps = max(b.Reps, 1)
	jobs = 1
	for _, f := range []int{len(b.Graphs), len(b.Topologies), reps} {
		if f > limit/jobs {
			return 0, 0, fmt.Errorf("engine: batch of %d graphs × %d topologies × %d reps exceeds the retention window of %d jobs",
				len(b.Graphs), len(b.Topologies), reps, limit)
		}
		jobs *= f
	}
	return jobs, reps, nil
}

// ExpandBatch expands a batch into its per-job specs without touching
// an engine: graphs outermost, then topologies, then reps, each job
// seeded by batchSeed (and sharedPartitionSeed), with the batch seed
// pinned into every graph spec. No graph is materialized and no
// topology is built. SubmitBatch expands through it; fleet routers use
// it to scatter a batch across replicas job by job, each routed by its
// own SpecHash. A batch of more than limit jobs is refused before any
// spec is built. SkipTooSmall is refused: deciding it needs the
// realized vertex count, which only a materializing submission path
// has.
func ExpandBatch(b BatchSpec, limit int) ([]JobSpec, error) {
	total, reps, err := b.jobCount(limit)
	if err != nil {
		return nil, err
	}
	if b.SkipTooSmall {
		return nil, fmt.Errorf("engine: skip_too_small needs materialized graph sizes and cannot be expanded purely")
	}
	seed := b.Seed
	if seed == 0 {
		seed = 1
	}
	specs := make([]JobSpec, 0, total)
	for _, gs := range b.Graphs {
		if gs.Seed == 0 {
			gs.Seed = seed
		}
		// Purity must not defer validation: a typo'd network name should
		// fail the expansion, not fan out into identically-failing jobs.
		if gs.G == nil && gs.Ref == "" && len(gs.Edges) == 0 && gs.Network != "" {
			if _, err := netgen.ByName(gs.Network); err != nil {
				return nil, err
			}
		}
		for _, topoSpec := range b.Topologies {
			for rep := 0; rep < reps; rep++ {
				spec := JobSpec{
					Graph:          gs,
					Topology:       topoSpec,
					Case:           b.Case,
					Epsilon:        b.Epsilon,
					Seed:           batchSeed(seed, rep, b.Case),
					NumHierarchies: b.NumHierarchies,
				}
				if b.SharedPartition {
					spec.PartitionSeed = sharedPartitionSeed(seed, rep)
				}
				specs = append(specs, spec)
			}
		}
	}
	return specs, nil
}

// SubmitBatch expands the batch into jobs with ExpandBatch and
// enqueues them all, returning the job IDs in its fan-out order. Jobs
// skipped by SkipTooSmall contribute an empty ID at their position, so
// the slice shape stays rectangular. Every graph, and under
// SkipTooSmall every topology, is resolved before the first job is
// queued, so a bad one fails the batch with nothing queued. The jobs'
// partitions are never one-shot in the artifact cache (see
// ArtifactCache): another topology of the batch, or the next case's
// batch, may ask for one however many jobs later.
func (e *Engine) SubmitBatch(b BatchSpec) ([]string, error) {
	// A batch larger than the retention window could have its earliest
	// finished jobs evicted before RunBatch collects them; reject it
	// outright, before materializing anything, instead of silently
	// losing results.
	if _, _, err := b.jobCount(e.opt.RetainJobs); err != nil {
		return nil, err
	}
	seed := b.Seed
	if seed == 0 {
		seed = 1
	}
	// SkipTooSmall compares each graph with its topology's PE count.
	var topos map[string]*topology.Topology
	if b.SkipTooSmall {
		topos = make(map[string]*topology.Topology, len(b.Topologies))
		for _, spec := range b.Topologies {
			if topos[spec] != nil {
				continue
			}
			topo, err := e.cache.Get(spec)
			if err != nil {
				return nil, err
			}
			topos[spec] = topo
		}
	}
	// Every job of a batch must compute on one graph instance.
	// ExpandBatch pins the batch seed into each graph spec, which fixes a
	// named netgen instance; such specs stay unmaterialized, so the
	// workers' first jobs coalesce on one cached generation and
	// submission stays fast even for paper-scale graphs. Ingested
	// references resolve through the registry once. Inline graphs, and
	// every graph under SkipTooSmall (which must see the realized size:
	// generation keeps only the largest component), are materialized
	// here through the artifact cache. Each resolved graph is pinned
	// beside the provenance the ledger logs.
	pure := b
	pure.SkipTooSmall = false
	pure.Graphs = make([]GraphSpec, len(b.Graphs))
	for i, gs := range b.Graphs {
		if gs.Ref != "" && gs.G == nil {
			ga, err := e.GraphByRef(gs.Ref)
			if err != nil {
				return nil, err
			}
			gs.G = ga
		}
		if gs.G == nil && (gs.Network == "" || b.SkipTooSmall) {
			var ga *graph.Graph
			var err error
			if key := gs.artifactKey(seed); key != "" {
				ga, err = e.artifacts.Graph(key, func() (*graph.Graph, error) { return gs.materialize(seed) })
			} else {
				ga, err = gs.materialize(seed)
			}
			if err != nil {
				return nil, err
			}
			gs.G = ga
		}
		pure.Graphs[i] = gs
	}
	specs, err := ExpandBatch(pure, e.opt.RetainJobs)
	if err != nil {
		return nil, err
	}
	ids := make([]string, 0, len(specs))
	for _, spec := range specs {
		if topo := topos[spec.Topology]; topo != nil && spec.Graph.G.N() <= topo.P() {
			ids = append(ids, "")
			continue
		}
		spec.batched = true
		job, err := e.Submit(spec)
		if err != nil {
			return ids, err
		}
		ids = append(ids, job.ID)
	}
	return ids, nil
}

// RunBatch submits the batch and waits for every job, returning final
// snapshots in fan-out order. Skipped pairs yield zero-value Jobs with
// empty IDs. Individual job failures do not abort the batch; inspect
// each snapshot's Status. If submission fails partway (e.g.
// ErrQueueFull), the jobs already enqueued are still awaited and their
// snapshots returned alongside the error — they are running regardless,
// so the caller must not lose track of them.
//
// Known limitation: the retention-window guard in SubmitBatch only
// accounts for this batch's own jobs. If *concurrent* submissions push
// the engine past RetainJobs while a large batch is in flight, its
// earliest finished jobs can be evicted before collection and come back
// as zero-value snapshots with an "unknown job" error. Size RetainJobs
// to cover the peak combined job volume when running large batches
// concurrently.
func (e *Engine) RunBatch(b BatchSpec) ([]Job, error) {
	ids, submitErr := e.SubmitBatch(b)
	out := make([]Job, len(ids))
	for i, id := range ids {
		if id == "" {
			continue
		}
		j, err := e.Wait(id)
		if err != nil {
			if submitErr == nil {
				submitErr = err
			}
			continue
		}
		out[i] = j
	}
	return out, submitErr
}
