package bench

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/metrics"
)

// Quality summarizes the deterministic quality metrics of one scenario
// over its repetitions as min/mean/max triples (the paper's Section 7.1
// statistics). For a fixed matrix and seed these values are
// reproducible bit for bit, which is what the CI baseline gate relies
// on.
type Quality struct {
	CocoBefore metrics.Triple `json:"coco_before"`
	CocoAfter  metrics.Triple `json:"coco_after"`
	// CocoQuotient divides after by before componentwise (the paper's
	// q-values; < 1 means TIMER improved the mapping).
	CocoQuotient metrics.Triple `json:"coco_quotient"`

	CutBefore   metrics.Triple `json:"cut_before"`
	CutAfter    metrics.Triple `json:"cut_after"`
	CutQuotient metrics.Triple `json:"cut_quotient"`

	DilationBefore metrics.Triple `json:"dilation_before"`
	DilationAfter  metrics.Triple `json:"dilation_after"`

	// ImbalanceBefore/After is the load factor (max PE load / ideal).
	// TIMER preserves balance exactly, so the two must agree.
	ImbalanceBefore metrics.Triple `json:"imbalance_before"`
	ImbalanceAfter  metrics.Triple `json:"imbalance_after"`

	HierarchiesKept metrics.Triple `json:"hierarchies_kept"`
	SwapsApplied    metrics.Triple `json:"swaps_applied"`
}

// Perf summarizes the machine-dependent performance metrics of one
// scenario. StripPerf removes these before determinism comparisons.
type Perf struct {
	// BaseSeconds is the initial-mapping time (partitioning or DRB);
	// TimerSeconds the enhancement time — the paper's Table 2 axes.
	// BaseSeconds and BaseNsPerJob summarize only the repetitions that
	// ran their base stage (DRB, or PartitionsComputed), so they are
	// empty when every partition came from the artifact cache.
	BaseSeconds metrics.Triple `json:"base_seconds"`
	// BaseNsPerJob is the base-stage wall time per job in nanoseconds —
	// the ns/op of the partition/DRB hot path, directly comparable with
	// the BenchmarkPartitionWarm/BenchmarkDRBWarm microbenchmarks.
	BaseNsPerJob metrics.Triple `json:"base_ns_per_job"`
	TimerSeconds metrics.Triple `json:"timer_seconds"`
	// TimerNsPerHierarchy is the enhancement time divided by the number
	// of hierarchies tried — the ns/op of the TIMER hot path, directly
	// comparable with the BenchmarkTryHierarchy microbenchmark.
	TimerNsPerHierarchy metrics.Triple `json:"timer_ns_per_hierarchy"`
	// StageSeconds summarizes each engine pipeline stage's wall time
	// over the repetitions, keyed by stage name (topology, graph,
	// partition, map, drb, enhance).
	StageSeconds map[string]metrics.Triple `json:"stage_seconds,omitempty"`
	// JobSeconds is the end-to-end pipeline time per repetition.
	JobSeconds metrics.Triple `json:"job_seconds"`
	// PartitionsComputed counts repetitions that ran the multilevel
	// partitioner; PartitionsReused counts repetitions served from the
	// engine's artifact cache instead (shared-partition batches reuse,
	// default batches mostly compute). DRB repetitions count in neither.
	PartitionsComputed int `json:"partitions_computed,omitempty"`
	PartitionsReused   int `json:"partitions_reused,omitempty"`
	// IngestSeconds and IngestPeakBytes describe the one-time dataset
	// ingest behind a file-backed scenario: the streaming loader's wall
	// time and its arithmetic peak-footprint model (a peak-RSS
	// estimate). Zero for generated networks.
	IngestSeconds   float64 `json:"ingest_seconds,omitempty"`
	IngestPeakBytes int64   `json:"ingest_peak_bytes,omitempty"`
}

// ScenarioResult is the outcome of one matrix cell.
type ScenarioResult struct {
	Scenario
	PEs    int `json:"pes"`
	GraphN int `json:"graph_n"`
	GraphM int `json:"graph_m"`
	Reps   int `json:"reps"`

	// Error is set when any repetition failed; Quality/Perf are then
	// absent and the baseline gate treats the scenario as regressed.
	Error   string   `json:"error,omitempty"`
	Quality *Quality `json:"quality,omitempty"`
	Perf    *Perf    `json:"perf,omitempty"`
}

// Summary aggregates a whole run, geometric means across scenarios in
// the style of the paper's qX^gm values.
type Summary struct {
	Scenarios int `json:"scenarios"`
	Skipped   int `json:"skipped,omitempty"`
	Failed    int `json:"failed,omitempty"`
	Jobs      int `json:"jobs"`

	// GeoCocoQuotient / GeoCutQuotient are geometric means over the
	// scenarios' mean quotients — the headline enhancement factors.
	GeoCocoQuotient float64 `json:"geo_coco_quotient"`
	GeoCutQuotient  float64 `json:"geo_cut_quotient"`
	// CaseGeoCocoQuotient breaks GeoCocoQuotient down per initial
	// mapper (the paper reports c1–c4 separately).
	CaseGeoCocoQuotient map[string]float64 `json:"case_geo_coco_quotient,omitempty"`
}

// RunPerf is the machine-dependent throughput and allocation profile of
// a whole run. The per-job figures are process-wide deltas of the Go
// runtime's allocation counters divided by the job count, so they track
// the hot path's allocation behavior (the ns/op, allocs/op, bytes/op
// columns of the perf trajectory) while concurrent overhead is shared
// out evenly.
type RunPerf struct {
	WallSeconds float64 `json:"wall_seconds"`
	JobsPerSec  float64 `json:"jobs_per_sec"`
	Workers     int     `json:"workers"`
	// NsPerJob is the mean wall time per job in nanoseconds; note jobs
	// run Workers-wide, so NsPerJob ≈ wall/jobs, not CPU time.
	NsPerJob float64 `json:"ns_per_job"`
	// AllocsPerJob and BytesPerJob are heap allocations and allocated
	// bytes per job (runtime.MemStats Mallocs/TotalAlloc deltas).
	AllocsPerJob float64 `json:"allocs_per_job"`
	BytesPerJob  float64 `json:"bytes_per_job"`
	// ArtifactHitRate is the fraction of the run's artifact-cache
	// lookups (materialized graphs + partitions) served from cache or
	// coalesced onto an in-flight build; 0 when the engine runs without
	// a cache. PartitionsComputed/PartitionsReused split the run's
	// partition stages into multilevel runs vs cache hits — in
	// shared-partition mode the reused column dominates.
	ArtifactHitRate    float64 `json:"artifact_hit_rate"`
	PartitionsComputed int     `json:"partitions_computed"`
	PartitionsReused   int     `json:"partitions_reused"`
	// The probe fields are written by cmd/mapbench's probe harness when
	// the run included that probe, and are zero otherwise. Every probe
	// first proves its results equal a reference after StripPerf, so
	// these are statements about runs that kept quality byte-identical.
	//
	// WideSpeedup and WideWidth (mapbench -wide): the sequential/wide
	// wall-clock ratio of one big job on an idle pool and the width that
	// job reached.
	WideSpeedup float64 `json:"wide_speedup,omitempty"`
	WideWidth   int     `json:"wide_width,omitempty"`
	// WarmSpeedup and DiskHitRate (mapbench -warm): the cold/warm
	// wall-clock ratio of one job set re-run by a restarted engine on a
	// shared cache directory, and the fraction of the warm run's disk
	// lookups served from verified snapshot files.
	WarmSpeedup float64 `json:"warm_speedup,omitempty"`
	DiskHitRate float64 `json:"disk_hit_rate,omitempty"`
	// JobsRecovered and DedupServed (mapbench -restart): how many jobs a
	// restarted engine requeued from the job ledger after a drain, and
	// how many duplicate submissions the ledger served without
	// recomputing.
	JobsRecovered int   `json:"jobs_recovered,omitempty"`
	DedupServed   int64 `json:"dedup_served,omitempty"`
	// Failovers and FleetSpeedup (mapbench -fleet): how many jobs the
	// router moved off a killed replica, and the wall-time ratio of the
	// one-replica run to the three-replica run of the same job set.
	Failovers    int64   `json:"failovers,omitempty"`
	FleetSpeedup float64 `json:"fleet_speedup,omitempty"`
}

// Results is the machine-readable outcome of one matrix run — the
// BENCH_results.json schema.
type Results struct {
	Matrix string `json:"matrix"`
	// Spec is the fully-resolved matrix, sufficient to re-run the bench.
	Spec      Spec   `json:"spec"`
	GoVersion string `json:"go_version,omitempty"`
	GOOS      string `json:"goos,omitempty"`
	GOARCH    string `json:"goarch,omitempty"`

	Scenarios []ScenarioResult `json:"scenarios"`
	Summary   Summary          `json:"summary"`
	Perf      *RunPerf         `json:"perf,omitempty"`
}

// StripPerf removes every machine-dependent field (wall times,
// throughput, host identity), leaving only the deterministic quality
// payload: two runs of the same matrix and seed must then be
// byte-identical when encoded.
func (r *Results) StripPerf() {
	r.Perf = nil
	r.GoVersion, r.GOOS, r.GOARCH = "", "", ""
	for i := range r.Scenarios {
		r.Scenarios[i].Perf = nil
	}
}

// Encode renders the results as indented JSON with a trailing newline.
func (r *Results) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("bench: encoding results: %w", err)
	}
	return append(data, '\n'), nil
}

// WriteFile writes the results to a JSON file.
func (r *Results) WriteFile(path string) error {
	data, err := r.Encode()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("bench: writing results: %w", err)
	}
	return nil
}

// ReadFile loads a results file written by WriteFile.
func ReadFile(path string) (*Results, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: reading results: %w", err)
	}
	var r Results
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench: parsing results %s: %w", path, err)
	}
	return &r, nil
}
