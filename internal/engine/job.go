package engine

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/netgen"
	"repro/internal/partition"
	"repro/internal/topology"
)

// Case identifies the initial-mapping algorithm of a job — the paper's
// experimental cases c1–c4 (Section 7.1, "Baselines").
type Case int

const (
	// CaseUnspecified is the zero value, so a JSON job spec that omits
	// "case" gets the same documented default as an empty string:
	// IDENTITY. It is normalized away before any pipeline runs.
	CaseUnspecified Case = iota
	// C1SCOTCH: initial mapping from the DRB mapper (SCOTCH stand-in).
	C1SCOTCH
	// C2Identity: initial mapping = IDENTITY on a KaHIP-style partition.
	C2Identity
	// C3GreedyAllC: initial mapping from GREEDYALLC on the communication
	// graph of a partition.
	C3GreedyAllC
	// C4GreedyMin: initial mapping from GREEDYMIN (the LibTopoMap-style
	// construction).
	C4GreedyMin
	// C0Random: a seeded random (but balance-preserving) block-to-PE
	// placement on a multilevel partition. Not one of the paper's cases —
	// the bench harness uses it as the sanity floor every real mapper
	// must beat.
	C0Random
)

// orDefault resolves CaseUnspecified to the IDENTITY default.
func (c Case) orDefault() Case {
	if c == CaseUnspecified {
		return C2Identity
	}
	return c
}

// String returns the paper's name of the case's baseline.
func (c Case) String() string {
	switch c.orDefault() {
	case C1SCOTCH:
		return "SCOTCH"
	case C2Identity:
		return "IDENTITY"
	case C3GreedyAllC:
		return "GREEDYALLC"
	case C4GreedyMin:
		return "GREEDYMIN"
	case C0Random:
		return "RANDOM"
	default:
		return fmt.Sprintf("Case(%d)", int(c))
	}
}

// Cases lists c1..c4 in paper order.
func Cases() []Case { return []Case{C1SCOTCH, C2Identity, C3GreedyAllC, C4GreedyMin} }

// ParseCase accepts the paper's baseline names (case-insensitive) and
// the short forms c1..c4. The empty string defaults to IDENTITY.
func ParseCase(s string) (Case, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "c1", "scotch", "drb":
		return C1SCOTCH, nil
	case "", "c2", "identity":
		return C2Identity, nil
	case "c3", "greedyallc":
		return C3GreedyAllC, nil
	case "c4", "greedymin":
		return C4GreedyMin, nil
	case "c0", "random":
		return C0Random, nil
	default:
		return 0, fmt.Errorf("engine: unknown case %q (want c1/scotch, c2/identity, c3/greedyallc, c4/greedymin or c0/random)", s)
	}
}

// MarshalJSON encodes the case as its baseline name.
func (c Case) MarshalJSON() ([]byte, error) { return json.Marshal(c.String()) }

// UnmarshalJSON accepts anything ParseCase does.
func (c *Case) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	parsed, err := ParseCase(s)
	if err != nil {
		return err
	}
	*c = parsed
	return nil
}

// GraphSpec names the application graph of a job. Exactly one source
// must be set: a Table 1 network name (generated via netgen), a
// reference to an ingested graph, an inline edge list, or — for
// library callers — a pre-built graph.
type GraphSpec struct {
	// Ref names a previously ingested graph: "file:<path>" (server-side
	// ingest) or "upload:<fingerprint>" (uploaded bytes). Resolved
	// through the engine's ingest registry and artifact cache.
	Ref string `json:"ref,omitempty"`
	// Network is a netgen catalog name ("p2p-Gnutella", ...).
	Network string `json:"network,omitempty"`
	// Scale shrinks the generated network (default 1.0 = paper size).
	Scale float64 `json:"scale,omitempty"`
	// Seed drives the generator (defaults to the job seed).
	Seed int64 `json:"seed,omitempty"`

	// N and Edges give an inline graph: Edges[i] = [u, v, w].
	N     int      `json:"n,omitempty"`
	Edges EdgeList `json:"edges,omitempty"`

	// G is a pre-materialized graph (library use only; not serializable).
	G *graph.Graph `json:"-"`
}

// artifactKey returns the content-addressed cache key of a generated
// graph spec — netgen generation is a pure function of (network, scale,
// seed) — or "" when the spec carries a pre-built or inline graph,
// which the pipeline keys by CSR fingerprint instead (the spec's
// provenance fields cannot be trusted to describe a caller-supplied G).
// A spec that sets both Network and Edges is also uncacheable: it fails
// materialize's exclusivity check, and that per-request error must not
// be cached under the canonical network key where it would poison
// every future legitimate job naming the same instance.
// Ingested references are also excluded here: their graphs already
// live in the cache under "graph:<ref>" (the ingest layer put them
// there), and their partitions are keyed by CSR fingerprint — the only
// address that stays correct if the file behind a "file:" ref changes
// and is explicitly re-ingested.
func (gs GraphSpec) artifactKey(jobSeed int64) string {
	if gs.G != nil || gs.Ref != "" || gs.Network == "" || len(gs.Edges) > 0 {
		return ""
	}
	scale := gs.Scale
	if scale <= 0 || scale > 1 {
		scale = 1 // Generate clamps out-of-range scales identically
	}
	seed := gs.Seed
	if seed == 0 {
		seed = jobSeed
	}
	return fmt.Sprintf("graph:net:%s@%g#%d", gs.Network, scale, seed)
}

// materialize resolves the spec into a graph. jobSeed is the fallback
// generator seed.
func (gs GraphSpec) materialize(jobSeed int64) (*graph.Graph, error) {
	// A pre-built G wins silently: it cannot arrive over the wire
	// (json:"-"), and the engine itself pins it next to the original
	// Network provenance when fanning batches out. The two serializable
	// sources, however, are mutually exclusive — choosing one for a
	// client that sent both would compute on a different graph than
	// intended.
	if gs.G == nil && moreThanOne(gs.Ref != "", gs.Network != "", len(gs.Edges) > 0) {
		return nil, fmt.Errorf("engine: graph spec sets more than one of ref, network and edges; want exactly one source")
	}
	switch {
	case gs.G != nil:
		return gs.G, nil
	case gs.Ref != "":
		// References resolve through the engine's ingest registry, which
		// runPipeline and SubmitBatch consult before materializing.
		return nil, fmt.Errorf("engine: graph ref %q needs an engine to resolve it", gs.Ref)
	case gs.Network != "":
		spec, err := netgen.ByName(gs.Network)
		if err != nil {
			return nil, err
		}
		seed := gs.Seed
		if seed == 0 {
			seed = jobSeed
		}
		// Generate clamps out-of-range scales to 1 itself.
		return spec.Generate(gs.Scale, seed), nil
	case len(gs.Edges) > 0:
		// Validate before touching graph.Builder: its range checks panic,
		// and a panic from a malformed request must not reach the worker.
		// The vertex cap keeps a tiny request body from demanding a
		// multi-GB CSR allocation (edge count is already bounded by the
		// HTTP body limit).
		const maxN = 1 << 22
		n := gs.N
		if n < 0 || n > maxN {
			return nil, fmt.Errorf("engine: graph spec n = %d out of range [0, %d]", n, maxN)
		}
		for i, e := range gs.Edges {
			if e[0] < 0 || e[1] < 0 || e[0] >= maxN || e[1] >= maxN {
				return nil, fmt.Errorf("engine: edge %d = {%d,%d} out of range [0, %d)", i, e[0], e[1], maxN)
			}
			if int(e[0]) >= n {
				n = int(e[0]) + 1
			}
			if int(e[1]) >= n {
				n = int(e[1]) + 1
			}
		}
		b := graph.NewBuilder(n)
		for _, e := range gs.Edges {
			w := e[2]
			if w <= 0 {
				w = 1
			}
			b.AddEdge(int(e[0]), int(e[1]), w)
		}
		return b.Build(), nil
	default:
		return nil, fmt.Errorf("engine: graph spec is empty (want network, edges or a pre-built graph)")
	}
}

// JobSpec describes one mapping job: partition an application graph,
// produce an initial mapping with the chosen baseline, enhance it with
// TIMER.
type JobSpec struct {
	// Graph selects the application graph (see GraphSpec).
	Graph GraphSpec `json:"graph"`
	// Topology is a canonical topology spec ("grid:16x16", ...) resolved
	// through the engine's cache.
	Topology string `json:"topology"`

	// Case picks the initial-mapping baseline (default IDENTITY).
	Case Case `json:"case"`
	// Epsilon is the partitioning imbalance (default 0.03).
	Epsilon float64 `json:"epsilon,omitempty"`
	// Seed drives partitioning, mapping and TIMER (default 1).
	Seed int64 `json:"seed,omitempty"`
	// PartitionSeed, when non-zero, drives the partition stage instead
	// of Seed (mapping and TIMER keep using Seed). Batches in
	// SharedPartition mode derive it from (base seed, rep) only, so the
	// paper's cases c2–c4 of one repetition share a single partition;
	// zero keeps the committed default of partitioning with Seed.
	PartitionSeed int64 `json:"partition_seed,omitempty"`
	// NumHierarchies is TIMER's NH (default 50).
	NumHierarchies int `json:"num_hierarchies,omitempty"`
	// Deprecated: TimerWorkers does nothing. It used to select TIMER's
	// batched hierarchy loop; wide mode parallelizes TIMER without
	// changing results. It is not part of the JSON schema, so servers
	// reject a spec that sets "timer_workers", and it never enters the
	// canonical spec hash.
	TimerWorkers int `json:"-"`
	// SwapRounds repeats TIMER's sibling-swap pass per level (default 1).
	SwapRounds int `json:"swap_rounds,omitempty"`
	// Wide forces wide mode for this job: the partition (or DRB) and
	// TIMER stages may fan work onto helper goroutines regardless of
	// pool occupancy (the engine-wide helper-token budget still applies). Results are
	// byte-identical to the sequential run — wide mode only changes
	// wall-clock and the result's Width diagnostic; see wide.go. Without
	// this flag the engine widens jobs automatically while the rest of
	// the pool's load stays within half its workers.
	Wide bool `json:"wide,omitempty"`
	// IncludeAssignment returns the enhanced mapping itself in the
	// result (can be large).
	IncludeAssignment bool `json:"include_assignment,omitempty"`

	// batched marks a job SubmitBatch queued: its partition is built
	// under the artifact cache's LRU bounds only, never one-shot. It is
	// neither encoded nor hashed, so a batch job a restart requeues from
	// the ledger, and a batch a client expands itself (mapclient,
	// maprouter), partition as single jobs do.
	batched bool
}

func (s JobSpec) withDefaults() JobSpec {
	s.Case = s.Case.orDefault()
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

// Stage is one timed step of the job pipeline.
type Stage struct {
	// Name is the pipeline step (topology, graph, partition, map, drb,
	// enhance); Seconds its wall time.
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

// JobResult is the outcome of a finished job.
type JobResult struct {
	// Topology, PEs, GraphN, GraphM and Case echo the resolved inputs:
	// the canonical topology spec, its processor count, the application
	// graph's size and the initial-mapping baseline that ran.
	Topology string `json:"topology"`
	PEs      int    `json:"pes"`
	GraphN   int    `json:"graph_n"`
	GraphM   int    `json:"graph_m"`
	Case     Case   `json:"case"`

	// CutBefore/After and CocoBefore/After are the edge cut and the
	// paper's Coco objective of the mapping before and after TIMER.
	CutBefore  int64 `json:"cut_before"`
	CutAfter   int64 `json:"cut_after"`
	CocoBefore int64 `json:"coco_before"`
	CocoAfter  int64 `json:"coco_after"`
	// CocoQuotient is CocoAfter/CocoBefore (< 1 means TIMER improved the
	// mapping).
	CocoQuotient float64 `json:"coco_quotient"`

	// DilationBefore/After is the maximum hop distance of any
	// communicating pair; ImbalanceBefore/After is the heaviest PE load
	// over the ideal load (paper Eq. (1)). TIMER preserves balance
	// exactly, so the two imbalance numbers must agree.
	DilationBefore  int     `json:"dilation_before"`
	DilationAfter   int     `json:"dilation_after"`
	ImbalanceBefore float64 `json:"imbalance_before"`
	ImbalanceAfter  float64 `json:"imbalance_after"`

	// HierarchiesKept counts TIMER trials whose labeling was accepted;
	// SwapsApplied the label swaps those trials contributed.
	HierarchiesKept int `json:"hierarchies_kept"`
	SwapsApplied    int `json:"swaps_applied"`

	// ServedFromLedger marks Submit's answer to a resubmission of a spec
	// that had already finished on this JobDir: nothing was recomputed.
	// A later Get or Wait of the job does not carry it. Like
	// PartitionReused it is provenance, not quality: StripPerf zeroes it.
	ServedFromLedger bool `json:"served_from_ledger,omitempty"`

	// PartitionReused reports that the partition stage was served from
	// the engine's artifact cache (or coalesced onto a concurrent
	// worker's in-flight computation) instead of being recomputed — the
	// batch-level savings the bench harness aggregates into its
	// partition-reuse columns.
	PartitionReused bool `json:"partition_reused,omitempty"`

	// BaseSeconds is the initial-mapping time: partitioning (c2-c4) or
	// DRB mapping (c1). TimerSeconds is the enhancement time. These are
	// the numerator/denominator of the paper's Table 2 quotients.
	BaseSeconds  float64 `json:"base_seconds"`
	TimerSeconds float64 `json:"timer_seconds"`

	// Width is 1 plus the peak number of wide-mode helper goroutines
	// that ran simultaneously for this job (so 1 = effectively
	// sequential). A perf diagnostic like the timing fields: quality
	// fields are byte-identical at any width. Zero for pipelines that
	// ran without an engine worker (Engine.Run).
	Width int `json:"width,omitempty"`

	// Stages are the per-stage wall times of the pipeline in execution
	// order — the same numbers the engine streams into a running Job's
	// snapshot, retained here so every consumer (mapd, bench, library
	// callers) reports identical timings.
	Stages []Stage `json:"stages,omitempty"`

	// Assignment is the enhanced vertex→PE mapping, present only when
	// the spec set IncludeAssignment.
	Assignment []int32 `json:"assignment,omitempty"`
}

// StripPerf returns a copy of the result with every machine- and
// schedule-dependent field zeroed: wall times, cache provenance and the
// wide-mode width diagnostic. What remains is the deterministic quality
// payload — two runs of the same spec must compare equal after
// StripPerf regardless of worker count, cache state or width (the
// bench harness and the determinism tests rely on exactly this).
func (r JobResult) StripPerf() JobResult {
	r.Stages = nil
	r.BaseSeconds, r.TimerSeconds = 0, 0
	r.Width = 0
	r.PartitionReused = false
	r.ServedFromLedger = false
	return r
}

// JobStatus is the lifecycle state of a job.
type JobStatus string

// The job lifecycle states: queued (accepted, waiting for a worker),
// running (a worker is executing the pipeline), done (finished with a
// Result), failed (finished with an Error) and interrupted (a draining
// engine handed the queued job back to the job ledger instead of
// executing it — on a durable engine a restart requeues it under the
// same ID; see durable.go).
const (
	StatusQueued      JobStatus = "queued"
	StatusRunning     JobStatus = "running"
	StatusDone        JobStatus = "done"
	StatusFailed      JobStatus = "failed"
	StatusInterrupted JobStatus = "interrupted"
)

// Job is a snapshot of one submitted job. All fields are copies; the
// engine's internal record keeps mutating after the snapshot is taken.
type Job struct {
	// ID is the engine-assigned job identifier.
	ID string `json:"id"`
	// Spec is the job spec as submitted, except that a snapshot never
	// includes Spec.Graph.Edges: the inline edge list goes in with the
	// submission and does not come back in any job response (the
	// result's GraphN and GraphM describe the graph that ran).
	Spec JobSpec `json:"spec"`
	// Status is the job's lifecycle state.
	Status JobStatus `json:"status"`
	// Stage is the pipeline step currently executing (running jobs only).
	Stage  string     `json:"stage,omitempty"`
	Stages []Stage    `json:"stages,omitempty"`
	Result *JobResult `json:"result,omitempty"`
	Error  string     `json:"error,omitempty"`

	// Submitted, Started and Finished timestamp the lifecycle
	// transitions (zero until reached).
	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started,omitzero"`
	Finished  time.Time `json:"finished,omitzero"`
}

// moreThanOne reports whether more than one of the flags is set.
func moreThanOne(flags ...bool) bool {
	n := 0
	for _, f := range flags {
		if f {
			n++
		}
	}
	return n > 1
}

// runPipeline executes the partition → initial mapping → TIMER pipeline
// of one job. The topology comes from the engine's cache and an
// ingested graph from its registry (GraphByRef); stage is called before
// each step begins and receives the step's duration after it ends, so
// callers can stream progress. ws carries the job's reusable scratch
// arenas (base stage + TIMER), taken from the engine's idle sets; Run
// passes a fresh one. The artifact cache
// memoizes whole stages across jobs: netgen graph materialization by
// canonical spec key and multilevel partitions by (graph fingerprint,
// K, ε, partition seed), with single-flight coalescing of concurrent
// identical requests. spawn, when non-nil, is the wide-mode helper
// hook handed to the DRB, partition and TIMER stages (see wide.go);
// results are byte-identical with or without it.
func (e *Engine) runPipeline(spec JobSpec, stage func(name string, seconds float64),
	ws *workerScratch, spawn func(func()) bool) (*JobResult, error) {
	spec = spec.withDefaults()
	if stage == nil {
		stage = func(string, float64) {}
	}
	var stages []Stage
	timed := func(name string, f func() error) error {
		stage(name, -1) // entering
		t0 := time.Now()
		err := f()
		sec := time.Since(t0).Seconds()
		stages = append(stages, Stage{Name: name, Seconds: sec})
		stage(name, sec)
		return err
	}

	var topo *topology.Topology
	if err := timed("topology", func() error {
		var err error
		topo, err = e.cache.Get(spec.Topology)
		return err
	}); err != nil {
		return nil, err
	}

	var ga *graph.Graph
	graphKey := spec.Graph.artifactKey(spec.Seed)
	// built marks a graph this job built from inline edges: no other job
	// holds its pointer, so fingerprintOf's memo could never hit for it.
	built := false
	if err := timed("graph", func() error {
		var err error
		if ref := spec.Graph.Ref; ref != "" && spec.Graph.G == nil {
			if spec.Graph.Network != "" || len(spec.Graph.Edges) > 0 {
				return fmt.Errorf("engine: graph spec sets more than one of ref, network and edges; want exactly one source")
			}
			ga, err = e.GraphByRef(ref)
			return err
		}
		if graphKey != "" {
			ga, err = e.artifacts.Graph(graphKey, func() (*graph.Graph, error) {
				return spec.Graph.materialize(spec.Seed)
			})
			return err
		}
		ga, err = spec.Graph.materialize(spec.Seed)
		built = spec.Graph.G == nil
		return err
	}); err != nil {
		return nil, err
	}
	if ga.N() <= topo.P() {
		return nil, fmt.Errorf("engine: graph has %d vertices for %d PEs; need more tasks than PEs", ga.N(), topo.P())
	}

	res := &JobResult{
		Topology: topo.Name,
		PEs:      topo.P(),
		GraphN:   ga.N(),
		GraphM:   ga.M(),
		Case:     spec.Case,
	}

	var assign []int32
	switch spec.Case {
	case C1SCOTCH:
		if err := timed("drb", func() error {
			t0 := time.Now()
			a, err := ws.base.DRB(ga, topo, mapping.DRBConfig{Epsilon: spec.Epsilon, Seed: spec.Seed, Fast: true, Spawn: spawn})
			if err != nil {
				return err
			}
			res.BaseSeconds = time.Since(t0).Seconds()
			assign = a
			return nil
		}); err != nil {
			return nil, fmt.Errorf("engine: DRB: %w", err)
		}
	default:
		pseed := spec.PartitionSeed
		if pseed == 0 {
			pseed = spec.Seed
		}
		var part *partition.Result
		if err := timed("partition", func() error {
			t0 := time.Now()
			cfg := partition.Config{K: topo.P(), Epsilon: spec.Epsilon, Seed: pseed, Spawn: spawn, Scratch: ws.base.Partition}
			// Content-address the partition by what determines it: the
			// graph (canonical generation key, or CSR fingerprint for
			// caller-supplied graphs), block count, imbalance and seed.
			// Partition is deterministic in these, so a cached result is
			// byte-identical to a recomputation.
			gkey := graphKey
			if gkey == "" {
				var fp graph.Fingerprint
				if built {
					fp = ga.Fingerprint()
				} else {
					fp = e.artifacts.fingerprintOf(ga)
				}
				gkey = "fp:" + fp.String()
			}
			key := fmt.Sprintf("part:%s|k=%d|eps=%g|seed=%d", gkey, cfg.K, cfg.Epsilon, pseed)
			build := func() (*partition.Result, error) { return partition.Partition(ga, cfg) }
			var err error
			if spec.batched {
				// A batch's jobs ask for each other's partitions however
				// far apart they run: across cases in SharedPartition
				// mode, across equal-PE topologies otherwise.
				part, res.PartitionReused, err = e.artifacts.partition(key, false, build)
			} else {
				part, res.PartitionReused, err = e.artifacts.Partition(key, build)
			}
			res.BaseSeconds = time.Since(t0).Seconds()
			return err
		}); err != nil {
			return nil, fmt.Errorf("engine: partition: %w", err)
		}
		if err := timed("map", func() error {
			switch spec.Case {
			case C2Identity:
				assign = mapping.FromPartition(part.Part)
				return nil
			case C0Random:
				// A seeded random bijection of blocks onto PEs: balance
				// comes from the partition, placement is noise.
				nu := make([]int32, topo.P())
				for i, pe := range rand.New(rand.NewSource(spec.Seed)).Perm(topo.P()) {
					nu[i] = int32(pe)
				}
				assign = mapping.Compose(part.Part, nu)
				return nil
			case C3GreedyAllC, C4GreedyMin:
				construct := ws.base.GreedyAllC
				if spec.Case == C4GreedyMin {
					construct = ws.base.GreedyMin
				}
				nu, err := construct(ws.base.CommGraph(ga, part.Part, topo.P()), topo)
				if err != nil {
					return err
				}
				assign = mapping.Compose(part.Part, nu)
				return nil
			default:
				return fmt.Errorf("engine: unknown case %d", int(spec.Case))
			}
		}); err != nil {
			return nil, fmt.Errorf("engine: initial mapping: %w", err)
		}
	}

	res.CutBefore = mapping.Cut(ga, assign)
	res.CocoBefore = mapping.Coco(ga, assign, topo)
	res.DilationBefore = mapping.Dilation(ga, assign, topo)
	res.ImbalanceBefore = mapping.Imbalance(ga, assign, topo.P())

	if err := timed("enhance", func() error {
		t0 := time.Now()
		tr, err := core.Enhance(ga, topo, assign, core.Options{
			NumHierarchies: spec.NumHierarchies,
			Seed:           spec.Seed,
			SwapRounds:     spec.SwapRounds,
			Spawn:          spawn,
			Scratch:        ws.timer,
		})
		if err != nil {
			return err
		}
		res.TimerSeconds = time.Since(t0).Seconds()
		res.CutAfter = mapping.Cut(ga, tr.Assign)
		res.CocoAfter = mapping.Coco(ga, tr.Assign, topo)
		res.DilationAfter = mapping.Dilation(ga, tr.Assign, topo)
		res.ImbalanceAfter = mapping.Imbalance(ga, tr.Assign, topo.P())
		res.HierarchiesKept = tr.HierarchiesKept
		res.SwapsApplied = tr.SwapsApplied
		if spec.IncludeAssignment {
			res.Assignment = tr.Assign
		}
		return nil
	}); err != nil {
		return nil, fmt.Errorf("engine: TIMER: %w", err)
	}
	if res.CocoBefore > 0 {
		res.CocoQuotient = float64(res.CocoAfter) / float64(res.CocoBefore)
	}
	res.Stages = stages
	return res, nil
}
