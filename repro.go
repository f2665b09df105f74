// Package repro is the public facade of this reproduction of
//
//	Glantz, Predari, Meyerhenke:
//	"Topology-induced Enhancement of Mappings", ICPP 2018.
//
// It wires together the substrates (graphs, processor topologies,
// partial-cube labelings, a multilevel partitioner, baseline mappers)
// around the paper's primary contribution, TIMER — a multi-hierarchical
// label-swapping enhancer for mappings of application graphs onto
// partial-cube processor topologies.
//
// A typical pipeline:
//
//	ga, _ := repro.GenerateNetwork("p2p-Gnutella", 0.25, 42) // or ReadGraph
//	topo, _ := repro.Grid(16, 16)
//	part, _ := repro.Partition(ga, topo.P(), 0.03, 42)
//	assign := repro.MapIdentity(part.Part)
//	res, _ := repro.Enhance(ga, topo, assign, repro.TimerOptions{NumHierarchies: 50, Seed: 42})
//	fmt.Println(res.CocoBefore, "->", res.CocoAfter)
//
// For long-lived, concurrent use, NewEngine wraps the same pipeline in
// the mapping engine: a shared topology cache, a worker-pool job queue
// and a batch runner (served over HTTP by cmd/mapd):
//
//	eng := repro.NewEngine(repro.EngineOptions{})
//	defer eng.Close()
//	job, _ := eng.Submit(repro.JobSpec{
//		Graph:    repro.GraphSpec{Network: "p2p-Gnutella", Scale: 0.25},
//		Topology: "grid:16x16",
//		Seed:     42,
//	})
//	done, _ := eng.Wait(job.ID)
//	fmt.Println(done.Result.CocoBefore, "->", done.Result.CocoAfter)
//
// See DESIGN.md for the system inventory and README.md for quickstarts
// covering the library, cmd/mapbench (every table and figure of the
// paper, rendered with -report) and the mapd service.
package repro

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/ingest"
	"repro/internal/mapping"
	"repro/internal/netgen"
	"repro/internal/partition"
	"repro/internal/routing"
	"repro/internal/topology"
)

// Re-exported types; see the internal packages for full documentation.
type (
	// Graph is a weighted undirected graph in CSR form.
	Graph = graph.Graph
	// Builder incrementally constructs a Graph.
	Builder = graph.Builder
	// Topology is a processor graph with its partial-cube labeling.
	Topology = topology.Topology
	// TimerOptions configures the TIMER enhancer (NH, seed).
	TimerOptions = core.Options
	// TimerResult reports a TIMER run (Coco before/after, mapping).
	TimerResult = core.Result
	// PartitionResult reports a k-way partition with quality metrics.
	PartitionResult = partition.Result
	// DRBConfig configures the SCOTCH-style dual-recursive-bisection
	// mapper.
	DRBConfig = mapping.DRBConfig

	// Engine is the concurrent mapping engine: topology cache + job
	// pipeline + batch runner.
	Engine = engine.Engine
	// EngineOptions sizes the engine's worker pool and job queue.
	EngineOptions = engine.Options
	// JobSpec describes one mapping job (graph + topology spec + case +
	// TIMER options).
	JobSpec = engine.JobSpec
	// GraphSpec names a job's application graph (netgen name, inline
	// edges, or a pre-built Graph).
	GraphSpec = engine.GraphSpec
	// Job is a snapshot of a submitted job (status, stage timings,
	// result).
	Job = engine.Job
	// JobResult is a finished job's outcome (Coco/cut before and after,
	// stage times).
	JobResult = engine.JobResult
	// BatchSpec fans graphs out over topologies through the engine. Its
	// SharedPartition mode derives partition seeds from (base seed, rep)
	// only, so cases c2–c4 of one repetition compare on a single shared
	// partition (the paper's experimental shape).
	BatchSpec = engine.BatchSpec
	// Case selects the initial-mapping baseline c1–c4.
	Case = engine.Case
	// ArtifactCache is the engine's content-addressed memo of
	// materialized graphs and partitions (single-flight, LRU-bounded);
	// EngineOptions.ArtifactCacheEntries/ArtifactCacheBytes size it.
	ArtifactCache = engine.ArtifactCache
	// ArtifactCacheStats reports the artifact cache's hit/miss/in-flight
	// counters (Engine.Stats().Artifacts, mapd GET /v1/stats).
	ArtifactCacheStats = engine.ArtifactStats
	// GraphFingerprint is a 128-bit content hash of a graph's CSR form —
	// the artifact cache's key for caller-supplied graphs (see
	// Graph.Fingerprint).
	GraphFingerprint = graph.Fingerprint

	// IngestOptions configures the real-world dataset loader (format,
	// duplicate-edge weights, largest-component extraction, parallelism,
	// anti-OOM size caps).
	IngestOptions = ingest.Options
	// IngestResult is a loaded, normalized graph with its id remap
	// table, content fingerprint and load statistics.
	IngestResult = ingest.Result
	// IngestStats describes what one dataset load saw and did (entries,
	// self-loops, parallel edges, wall time, peak-footprint estimate).
	IngestStats = ingest.Stats
	// GraphInfo is the engine's registration record of an ingested
	// dataset (ref, fingerprint, sizes, ingest stats) — what mapd's
	// /v1/graphs endpoints serve.
	GraphInfo = engine.GraphInfo

	// BenchSpec is a declarative benchmark matrix: networks ×
	// topologies × mapper cases × repetitions.
	BenchSpec = bench.Spec
	// BenchRunOptions tunes a benchmark run (workers, rep/seed
	// overrides, progress callback).
	BenchRunOptions = bench.RunOptions
	// BenchResults is the machine-readable outcome of a benchmark run
	// (the BENCH_results.json schema).
	BenchResults = bench.Results
)

// The four initial-mapping baselines of the paper's evaluation
// (Section 7.1), selectable in a JobSpec. The zero value defaults to
// CaseIdentity.
const (
	// CaseSCOTCH (c1): dual-recursive-bisection mapping (SCOTCH stand-in).
	CaseSCOTCH = engine.C1SCOTCH
	// CaseIdentity (c2): IDENTITY on a multilevel partition.
	CaseIdentity = engine.C2Identity
	// CaseGreedyAllC (c3): GREEDYALLC on the communication graph.
	CaseGreedyAllC = engine.C3GreedyAllC
	// CaseGreedyMin (c4): GREEDYMIN (LibTopoMap-style construction).
	CaseGreedyMin = engine.C4GreedyMin
)

// NewBuilder creates a graph builder for n vertices.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// NewEngine creates a concurrent mapping engine and starts its worker
// pool. Close it when done. Submit/Wait/RunBatch run whole
// partition→map→enhance pipelines; the engine's topology cache builds
// each partial-cube labeling once and shares it across jobs.
func NewEngine(opt EngineOptions) *Engine { return engine.New(opt) }

// SmokeBenchMatrix returns the canonical CI-sized benchmark matrix:
// small generated networks over two 64-PE topologies with every mapper
// family, finishing in well under a minute. Its quality metrics are the
// repository's regression gate (BENCH_baseline.json).
func SmokeBenchMatrix() BenchSpec { return bench.Smoke() }

// SharedSmokeBenchMatrix returns the smoke matrix in shared-partition
// mode: each repetition's cases compare on one shared partition served
// from the engine's artifact cache (paper-faithful; quality differs
// from the default smoke baseline).
func SharedSmokeBenchMatrix() BenchSpec { return bench.SmokeShared() }

// PaperBenchMatrix returns the full paper-style matrix: the Table 1
// suite over the five Section 7 topologies, cases c1–c4, five
// repetitions — the shape of the paper's tables as one run.
func PaperBenchMatrix() BenchSpec { return bench.Paper() }

// RunBench executes a benchmark matrix on the concurrent mapping
// engine and returns quality (Coco, cut, dilation, imbalance) and
// performance (per-stage times, jobs/sec) summaries per scenario.
// Quality metrics are deterministic for a fixed matrix and seed.
func RunBench(spec BenchSpec, opt BenchRunOptions) (*BenchResults, error) {
	return bench.Run(spec, opt)
}

// ReadGraph loads a METIS/Chaco format graph file. It rejects malformed
// inputs (including self-loops, which the format cannot express); for
// permissive, normalizing loads of real-world datasets — and for SNAP
// edge lists or Matrix Market files — use LoadGraphFile.
func ReadGraph(path string) (*Graph, error) { return graph.ReadMETISFile(path) }

// LoadGraphFile ingests a real-world graph file (SNAP/edge-list,
// Matrix Market or METIS, auto-detected by default) through the
// two-pass streaming CSR loader: self-loops dropped, parallel edges
// merged, ids remapped to a compact range, peak memory within a small
// constant of the final CSR. The result carries the graph, the id
// remap table, the content fingerprint and the load stats.
//
// Engines ingest datasets directly — Engine.IngestPath /
// Engine.IngestBytes register a graph once and jobs reference it by
// its ref ("file:<path>" / "upload:<fingerprint>") in
// GraphSpec.Ref — which is also what mapd's POST /v1/graphs does.
func LoadGraphFile(path string, opt IngestOptions) (*IngestResult, error) {
	return ingest.LoadFile(path, opt)
}

// GenerateNetwork builds a synthetic stand-in for one of the paper's
// Table 1 complex networks ("p2p-Gnutella", "as-skitter", ...) at the
// given scale in (0, 1].
func GenerateNetwork(name string, scale float64, seed int64) (*Graph, error) {
	spec, err := netgen.ByName(name)
	if err != nil {
		return nil, err
	}
	return spec.Generate(scale, seed), nil
}

// NetworkNames lists the names of the Table 1 suite.
func NetworkNames() []string {
	var names []string
	for _, s := range netgen.Catalog() {
		names = append(names, s.Name)
	}
	return names
}

// Grid builds an n-dimensional mesh topology (a partial cube).
func Grid(extents ...int) (*Topology, error) { return topology.Grid(extents...) }

// Torus builds an even torus topology (a partial cube).
func Torus(extents ...int) (*Topology, error) { return topology.Torus(extents...) }

// Hypercube builds the d-dimensional hypercube topology.
func Hypercube(d int) (*Topology, error) { return topology.Hypercube(d) }

// TopologyFromGraph recognizes an arbitrary graph as a partial cube and
// labels it (paper Section 3), or fails if it is not a partial cube.
func TopologyFromGraph(name string, g *Graph) (*Topology, error) {
	return topology.FromGraph(name, g)
}

// TreeTopology builds a tree-shaped topology from a parent vector
// (parent[v] < v for v > 0; parent[0] ignored). Every tree is a partial
// cube with one label digit per edge, so trees are limited to 65
// vertices by the 64-digit labels.
func TreeTopology(name string, parent []int) (*Topology, error) {
	return topology.Tree(name, parent)
}

// PaperTopology builds one of the paper's five processor graphs by name:
// "grid16x16", "grid8x8x8", "torus16x16", "torus8x8x8", "8-dimHQ".
func PaperTopology(name string) (*Topology, error) {
	for _, pt := range topology.PaperTopologies() {
		if pt.String() == name {
			return pt.Build()
		}
	}
	return nil, fmt.Errorf("repro: unknown paper topology %q (want one of grid16x16, grid8x8x8, torus16x16, torus8x8x8, 8-dimHQ)", name)
}

// Partition computes an ε-balanced k-way partition of g with the
// multilevel partitioner (the repository's KaHIP stand-in).
func Partition(g *Graph, k int, eps float64, seed int64) (*PartitionResult, error) {
	return partition.Partition(g, partition.Config{K: k, Epsilon: eps, Seed: seed})
}

// MapIdentity turns a partition into a mapping by placing block i on PE
// i (the paper's IDENTITY baseline, case c2).
func MapIdentity(part []int32) []int32 { return mapping.FromPartition(part) }

// MapGreedyAllC maps a partition onto topo with the GREEDYALLC baseline
// (case c3): communication graph construction plus greedy all-to-mapped
// placement.
func MapGreedyAllC(ga *Graph, part []int32, topo *Topology) ([]int32, error) {
	gc := mapping.CommGraph(ga, part, topo.P())
	nu, err := mapping.GreedyAllC(gc, topo)
	if err != nil {
		return nil, err
	}
	return mapping.Compose(part, nu), nil
}

// MapGreedyMin maps a partition onto topo with the GREEDYMIN baseline
// (case c4, the LibTopoMap-style construction).
func MapGreedyMin(ga *Graph, part []int32, topo *Topology) ([]int32, error) {
	gc := mapping.CommGraph(ga, part, topo.P())
	nu, err := mapping.GreedyMin(gc, topo)
	if err != nil {
		return nil, err
	}
	return mapping.Compose(part, nu), nil
}

// MapDRB maps ga onto topo by dual recursive bipartitioning (the
// SCOTCH-style baseline of case c1).
func MapDRB(ga *Graph, topo *Topology, cfg DRBConfig) ([]int32, error) {
	return mapping.DRB(ga, topo, cfg)
}

// Enhance runs TIMER (paper Algorithm 1) on an initial mapping and
// returns the enhanced mapping together with before/after metrics. The
// input mapping's balance is preserved exactly.
func Enhance(ga *Graph, topo *Topology, assign []int32, opt TimerOptions) (*TimerResult, error) {
	return core.Enhance(ga, topo, assign, opt)
}

// Coco evaluates the paper's hop-byte objective Eq. (3) for a mapping.
func Coco(ga *Graph, assign []int32, topo *Topology) int64 {
	return mapping.Coco(ga, assign, topo)
}

// Cut evaluates the edge-cut of a mapping (weight of edges whose
// endpoints live on different PEs).
func Cut(ga *Graph, assign []int32) int64 { return mapping.Cut(ga, assign) }

// ValidateMapping checks range and (for eps ≥ 0) the balance constraint
// of paper Eq. (1).
func ValidateMapping(ga *Graph, assign []int32, topo *Topology, eps float64) error {
	return mapping.Validate(ga, assign, topo, eps)
}

// MappingReport is the full quality report of a mapping (Coco, cut,
// dilation, per-convex-cut traffic).
type MappingReport = mapping.Report

// EvaluateMapping computes a MappingReport.
func EvaluateMapping(ga *Graph, assign []int32, topo *Topology) MappingReport {
	return mapping.Evaluate(ga, assign, topo)
}

// RoutingResult reports a shortest-path routing simulation (total
// hop-bytes — always equal to Coco — plus link congestion statistics).
type RoutingResult = routing.Result

// SimulateRouting routes every application edge's traffic along a
// canonical shortest path in the topology and returns link loads. It
// makes the paper's "routing on shortest paths" abstraction executable
// and exposes congestion, which Coco ignores.
func SimulateRouting(ga *Graph, assign []int32, topo *Topology) (*RoutingResult, error) {
	return routing.Simulate(ga, assign, topo)
}
