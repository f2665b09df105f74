package engine

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/netgen"
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
	// generated JobSpec (Seed after per-job derivation — see BatchSeed).
	Epsilon        float64 `json:"epsilon,omitempty"`
	Seed           int64   `json:"seed,omitempty"`
	NumHierarchies int     `json:"num_hierarchies,omitempty"`

	// SharedPartition derives every job's partition seed from (batch
	// seed, rep) only — the paper's experimental shape, where cases
	// c2–c4 of one repetition are compared on the *same* partition of
	// the same graph and only the block→PE assignment differs. Combined
	// with the engine's artifact cache this computes each repetition's
	// partition once instead of once per case. Off by default: the
	// committed default folds the case into every seed (BatchSeed), so
	// existing batches stay byte-identical.
	SharedPartition bool `json:"shared_partition,omitempty"`

	// SkipTooSmall drops (graph, topology) pairs where the graph has no
	// more vertices than the topology has PEs, instead of failing them.
	SkipTooSmall bool `json:"skip_too_small,omitempty"`
}

// BatchSeed derives the seed of repetition rep of a batch with base
// seed. The bench harness derives its per-rep seeds the same way, so a
// batch reproduces a bench matrix's jobs.
func BatchSeed(base int64, rep int, c Case) int64 {
	return base + int64(rep)*7919 + int64(c.orDefault()-C1SCOTCH)*104729
}

// SharedPartitionSeed derives the case-independent partition seed of
// repetition rep in SharedPartition mode. It equals BatchSeed's value
// for c1 (case offset zero), so the shared partition of a rep is
// exactly the one the default mode would compute for that rep's first
// case — same seed algebra, minus the per-case spreading that the
// paper's shared-partition comparison deliberately avoids.
func SharedPartitionSeed(base int64, rep int) int64 {
	return base + int64(rep)*7919
}

// ExpandBatch expands a batch into its per-job specs without touching
// an engine: the same fan-out order (graphs outermost, then topologies,
// then reps) and the same seed algebra (BatchSeed, SharedPartitionSeed,
// batch seed pinned into every graph spec) as SubmitBatch, but purely —
// no graph is materialized and no topology is built. Fleet routers use
// it to scatter a batch across replicas job by job, each routed by its
// own SpecHash. SkipTooSmall is refused: deciding it needs the realized
// vertex count, which only a materializing submission path has.
func ExpandBatch(b BatchSpec) ([]JobSpec, error) {
	if len(b.Graphs) == 0 || len(b.Topologies) == 0 {
		return nil, fmt.Errorf("engine: batch needs at least one graph and one topology")
	}
	if b.SkipTooSmall {
		return nil, fmt.Errorf("engine: skip_too_small needs materialized graph sizes and cannot be expanded purely")
	}
	reps := b.Reps
	if reps <= 0 {
		reps = 1
	}
	seed := b.Seed
	if seed == 0 {
		seed = 1
	}
	specs := make([]JobSpec, 0, len(b.Graphs)*len(b.Topologies)*reps)
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
					Seed:           BatchSeed(seed, rep, b.Case),
					NumHierarchies: b.NumHierarchies,
				}
				if b.SharedPartition {
					spec.PartitionSeed = SharedPartitionSeed(seed, rep)
				}
				specs = append(specs, spec)
			}
		}
	}
	return specs, nil
}

// SubmitBatch expands the batch into jobs and enqueues them all,
// returning the job IDs in fan-out order (graphs outermost, then
// topologies, then reps). Jobs skipped by SkipTooSmall contribute an
// empty ID at their position, so the slice shape stays rectangular.
func (e *Engine) SubmitBatch(b BatchSpec) ([]string, error) {
	if len(b.Graphs) == 0 || len(b.Topologies) == 0 {
		return nil, fmt.Errorf("engine: batch needs at least one graph and one topology")
	}
	reps := b.Reps
	if reps <= 0 {
		reps = 1
	}
	// A batch larger than the retention window could have its earliest
	// finished jobs evicted before RunBatch collects them; reject it
	// outright instead of silently losing results.
	if total := len(b.Graphs) * len(b.Topologies) * reps; total > e.opt.RetainJobs {
		return nil, fmt.Errorf("engine: batch expands to %d jobs, exceeding the retention window of %d", total, e.opt.RetainJobs)
	}
	seed := b.Seed
	if seed == 0 {
		seed = 1
	}
	var ids []string
	for _, gs := range b.Graphs {
		// Every job of a batch must compute on one graph instance:
		// repetitions vary only the pipeline seed, never the graph (a
		// netgen spec without an explicit Seed would otherwise generate a
		// different random graph per rep). Pinning the batch seed into the
		// spec fixes the instance; *how* it is shared then depends on the
		// engine. With the artifact cache, named netgen specs are left
		// unmaterialized — the workers' first jobs coalesce on one cached
		// generation under the spec's canonical key, so submission stays
		// fast even for paper-scale graphs. Without the cache, with
		// inline/pre-built graphs, or under SkipTooSmall (which must see
		// the realized size) the graph is materialized at submit time.
		if gs.Seed == 0 {
			gs.Seed = seed
		}
		// Ingested references resolve through the registry once, up
		// front: a bad ref fails the submission, and every job of the
		// batch computes on the one resident instance.
		if gs.Ref != "" && gs.G == nil {
			ga, err := e.GraphByRef(gs.Ref)
			if err != nil {
				return ids, err
			}
			gs.G = ga
		}
		// SkipTooSmall needs the realized vertex count (generation keeps
		// only the largest component, so a predicted size could admit
		// pairs that then fail instead of skipping), so it forces eager
		// materialization — still through the artifact cache when one
		// exists, so the instance is shared rather than re-pinned.
		lazy := e.artifacts != nil && gs.G == nil && gs.Network != "" && !b.SkipTooSmall
		if lazy {
			// Deferring generation must not defer validation: a typo'd
			// network name should fail the submission, not expand into a
			// batch of identically-failing jobs.
			if _, err := netgen.ByName(gs.Network); err != nil {
				return ids, err
			}
		}
		if !lazy && gs.G == nil {
			var ga *graph.Graph
			var err error
			if key := gs.artifactKey(seed); e.artifacts != nil && key != "" {
				ga, err = e.artifacts.Graph(key, func() (*graph.Graph, error) { return gs.materialize(seed) })
			} else {
				ga, err = gs.materialize(seed)
			}
			if err != nil {
				return ids, err
			}
			gs.G = ga
		}
		for _, topoSpec := range b.Topologies {
			skip := false
			if b.SkipTooSmall {
				topo, err := e.cache.Get(topoSpec)
				if err != nil {
					return ids, err
				}
				skip = gs.G.N() <= topo.P()
			}
			for rep := 0; rep < reps; rep++ {
				if skip {
					ids = append(ids, "")
					continue
				}
				spec := JobSpec{
					Graph:          gs,
					Topology:       topoSpec,
					Case:           b.Case,
					Epsilon:        b.Epsilon,
					Seed:           BatchSeed(seed, rep, b.Case),
					NumHierarchies: b.NumHierarchies,
				}
				if b.SharedPartition {
					spec.PartitionSeed = SharedPartitionSeed(seed, rep)
				}
				job, err := e.Submit(spec)
				if err != nil {
					return ids, err
				}
				ids = append(ids, job.ID)
			}
		}
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
