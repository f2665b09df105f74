// Command mapbench runs the scenario-matrix benchmark harness and
// gates quality regressions against a baseline results file.
//
// Run a matrix and record results:
//
//	mapbench -smoke -out BENCH_results.json       # CI-sized, < 60s
//	mapbench -full -out BENCH_full.json           # paper-sized matrix
//	mapbench -matrix my-matrix.json -seed 3       # custom matrix file
//	mapbench -smoke -shared-partition             # one partition per rep,
//	                                              # shared across cases
//
// Inspect the expansion without running (derived seeds, partition
// sharing):
//
//	mapbench -smoke -list
//	mapbench -smoke -shared-partition -list
//
// Bench real dataset files next to the generated networks (repeatable;
// each file crosses the matrix's topologies and cases, rows report the
// ingest wall time and peak-footprint estimate in their perf columns):
//
//	mapbench -smoke -graph ca-GrQc.txt -graph web-Google.mtx
//	mapbench -smoke -graph ca-GrQc.txt -graph-lcc   # largest component only
//
// Probe the serving features. Each probe computes a reference for its
// job set with Engine.Run on a fresh engine with the artifact cache
// off, re-runs the set under one perturbation, and fails unless every
// result equals the reference after JobResult.StripPerf. -wide runs one
// big job sequentially and then wide on an idle pool (perf.wide_speedup,
// perf.wide_width); -warm runs a job set cold and again on a restarted
// engine sharing the cache directory (perf.warm_speedup,
// perf.disk_hit_rate); -restart drains an engine mid-batch and recovers
// it from its job ledger (perf.jobs_recovered, perf.dedup_served);
// -fleet runs a job set through maprouter over 1 and 3 in-process mapd
// replicas and once more with a replica killed mid-batch
// (perf.fleet_speedup, perf.failovers). The harness is probe.go; see
// "The benchmark harness" in DESIGN.md:
//
//	mapbench -smoke -seed 1 -wide -warm -restart -fleet
//
// Render the paper's Tables 1-3 and Figures 5a-5d (Section 7) for a
// fresh run or a results file:
//
//	mapbench -full -out BENCH_paper.json -report   # paper-sized (hours)
//	mapbench -diff BENCH_paper.json -report
//
// Gate against a baseline (nonzero exit on regression):
//
//	mapbench -smoke -out BENCH_results.json -baseline BENCH_baseline.json
//	mapbench -baseline BENCH_baseline.json -diff BENCH_results.json
//
// The -diff form compares two existing result files without running
// anything. Quality metrics are deterministic for a fixed matrix and
// seed; performance fields are reported but never gated.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/bench"
)

func main() {
	var (
		matrixFile = flag.String("matrix", "", "benchmark matrix spec file (JSON); overrides -smoke/-full")
		smoke      = flag.Bool("smoke", false, "run the canonical CI smoke matrix")
		full       = flag.Bool("full", false, "run the full paper-style matrix (hours)")
		reps       = flag.Int("reps", 0, "override the matrix repetition count")
		seed       = flag.Int64("seed", 0, "override the matrix seed")
		workers    = flag.Int("workers", 0, "engine worker-pool size (default GOMAXPROCS)")
		shared     = flag.Bool("shared-partition", false, "share one partition per rep across cases (paper-faithful; quality differs from the default baseline)")
		list       = flag.Bool("list", false, "print the expanded matrix rows with derived seeds instead of running")
		out        = flag.String("out", "", "write results to this JSON file")
		baseline   = flag.String("baseline", "", "gate quality metrics against this results file; exit 1 on regression")
		diffFile   = flag.String("diff", "", "compare this results file against -baseline instead of running")
		tol        = flag.Float64("tol", 0.05, "relative tolerance of the baseline gate")
		quiet      = flag.Bool("q", false, "suppress per-scenario progress")
		report     = flag.Bool("report", false, "print the paper's Tables 1-3 and Figures 5a-5d for the results")
		graphLCC   = flag.Bool("graph-lcc", false, "restrict -graph datasets to their largest connected component")
	)
	var graphs stringList
	flag.Var(&graphs, "graph", "add a real dataset file (SNAP/Matrix Market/METIS) as matrix cells; repeatable")
	enabled := make(map[string]*bool, len(probes))
	for _, p := range probes {
		enabled[p.name] = flag.Bool(p.name, false, p.usage)
	}
	flag.Parse()

	if *list {
		if err := listRows(*matrixFile, *smoke, *full, *reps, *seed, *shared, graphs, *graphLCC); err != nil {
			fatal(err)
		}
		return
	}

	results, err := obtainResults(*matrixFile, *smoke, *full, *diffFile, graphs, *graphLCC, bench.RunOptions{
		Workers:         *workers,
		Reps:            *reps,
		Seed:            *seed,
		SharedPartition: *shared,
		Progress:        progress(*quiet),
	})
	if err != nil {
		fatal(err)
	}

	for _, p := range probes {
		if *enabled[p.name] && *diffFile == "" {
			if err := runProbe(p, *seed, *workers, results.Perf, progress(*quiet)); err != nil {
				fatal(err)
			}
		}
	}

	if *out != "" {
		if err := results.WriteFile(*out); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
	}
	printSummary(results)
	if *report {
		fmt.Println()
		if err := bench.WriteReport(os.Stdout, results); err != nil {
			fatal(err)
		}
	}

	if results.Summary.Failed > 0 {
		fatal(fmt.Errorf("%d scenarios failed", results.Summary.Failed))
	}
	if *baseline != "" {
		base, err := bench.ReadFile(*baseline)
		if err != nil {
			fatal(err)
		}
		diff := bench.Compare(base, results, *tol)
		printDiff(diff, *baseline, *tol)
		if !diff.OK() {
			os.Exit(1)
		}
	}
}

// stringList is a repeatable string flag.
type stringList []string

func (s *stringList) String() string     { return fmt.Sprint([]string(*s)) }
func (s *stringList) Set(v string) error { *s = append(*s, v); return nil }

// obtainResults either loads an existing results file (-diff) or runs
// the selected matrix.
func obtainResults(matrixFile string, smoke, full bool, diffFile string, graphs []string, graphLCC bool, opt bench.RunOptions) (*bench.Results, error) {
	if diffFile != "" {
		return bench.ReadFile(diffFile)
	}
	spec, err := selectMatrix(matrixFile, smoke, full)
	if err != nil {
		return nil, err
	}
	addGraphCells(&spec, graphs, graphLCC)
	return bench.Run(spec, opt)
}

// addGraphCells appends -graph dataset files to the matrix as file
// cells; absent files still expand (and are skipped with a count), so a
// stale path is visible rather than silently ignored.
func addGraphCells(spec *bench.Spec, graphs []string, lcc bool) {
	for _, path := range graphs {
		spec.Files = append(spec.Files, bench.FileCell{Path: path, LargestComponent: lcc})
	}
}

func selectMatrix(matrixFile string, smoke, full bool) (bench.Spec, error) {
	switch {
	case matrixFile != "":
		return bench.LoadSpec(matrixFile)
	case smoke && full:
		return bench.Spec{}, fmt.Errorf("-smoke and -full are mutually exclusive")
	case smoke:
		return bench.Smoke(), nil
	case full:
		return bench.Paper(), nil
	default:
		return bench.Spec{}, fmt.Errorf("pick a matrix: -smoke, -full or -matrix FILE")
	}
}

// listRows prints the fully-expanded matrix — one line per job with
// its derived seeds and graph instance key — without running anything:
// the ground truth for "which jobs share a partition artifact".
func listRows(matrixFile string, smoke, full bool, reps int, seed int64, shared bool, graphs []string, graphLCC bool) error {
	spec, err := selectMatrix(matrixFile, smoke, full)
	if err != nil {
		return err
	}
	addGraphCells(&spec, graphs, graphLCC)
	if reps > 0 {
		spec.Reps = reps
	}
	if seed != 0 {
		spec.Seed = seed
	}
	if shared {
		spec.SharedPartition = true
	}
	rows, skipped, err := bench.Rows(spec)
	if err != nil {
		return err
	}
	mode := "default"
	if spec.SharedPartition {
		mode = "shared-partition"
	}
	fmt.Printf("matrix %s (%s): %d jobs (%d cells skipped)\n", spec.Name, mode, len(rows), skipped)
	fmt.Printf("%-4s %-45s %-24s %-3s %10s %14s\n", "#", "scenario", "graph", "rep", "seed", "partition_seed")
	for i, r := range rows {
		fmt.Printf("%-4d %-45s %-24s %-3d %10d %14d\n", i, r.Name, r.GraphKey, r.Rep, r.Seed, r.PartitionSeed)
	}
	return nil
}

func progress(quiet bool) func(string) {
	if quiet {
		return nil
	}
	return func(line string) { fmt.Fprintln(os.Stderr, line) }
}

func printSummary(r *bench.Results) {
	s := r.Summary
	fmt.Printf("matrix %s: %d scenarios (%d skipped, %d failed), %d jobs\n",
		r.Matrix, s.Scenarios, s.Skipped, s.Failed, s.Jobs)
	fmt.Printf("  qCoco^gm %.4f   qCut^gm %.4f\n", s.GeoCocoQuotient, s.GeoCutQuotient)
	cases := make([]string, 0, len(s.CaseGeoCocoQuotient))
	for c := range s.CaseGeoCocoQuotient {
		cases = append(cases, c)
	}
	sort.Strings(cases)
	for _, c := range cases {
		fmt.Printf("  %-12s qCoco^gm %.4f\n", c, s.CaseGeoCocoQuotient[c])
	}
	if r.Perf != nil {
		fmt.Printf("  %.1fs wall, %.2f jobs/sec on %d workers\n",
			r.Perf.WallSeconds, r.Perf.JobsPerSec, r.Perf.Workers)
		fmt.Printf("  %.0f ns/job   %.0f allocs/job   %.0f bytes/job\n",
			r.Perf.NsPerJob, r.Perf.AllocsPerJob, r.Perf.BytesPerJob)
		fmt.Printf("  artifact hit rate %.2f   partitions %d computed / %d reused\n",
			r.Perf.ArtifactHitRate, r.Perf.PartitionsComputed, r.Perf.PartitionsReused)
		if r.Perf.WideSpeedup > 0 {
			fmt.Printf("  wide probe: %.2fx speedup at width %d\n",
				r.Perf.WideSpeedup, r.Perf.WideWidth)
		}
		if r.Perf.WarmSpeedup > 0 {
			fmt.Printf("  warm probe: %.2fx restart speedup, disk hit rate %.2f\n",
				r.Perf.WarmSpeedup, r.Perf.DiskHitRate)
		}
		if r.Perf.JobsRecovered > 0 {
			fmt.Printf("  restart probe: %d jobs recovered byte-identical, %d duplicates ledger-served\n",
				r.Perf.JobsRecovered, r.Perf.DedupServed)
		}
		if r.Perf.FleetSpeedup > 0 {
			fmt.Printf("  fleet probe: %.2fx fleet speedup, %d failovers survived byte-identical\n",
				r.Perf.FleetSpeedup, r.Perf.Failovers)
		}
	}
	// Base-vs-enhancement split: the two stages this repository's hot
	// paths target (PR 3 made TIMER allocation-free; the base stage got
	// the same treatment), averaged across scenarios.
	var baseMs, timerMs float64
	counted := 0
	for i := range r.Scenarios {
		if p := r.Scenarios[i].Perf; p != nil {
			baseMs += p.BaseNsPerJob.Mean / 1e6
			timerMs += p.TimerSeconds.Mean * 1e3
			counted++
		}
	}
	if counted > 0 {
		fmt.Printf("  base %.2f ms/job   enhance %.2f ms/job (scenario means)\n",
			baseMs/float64(counted), timerMs/float64(counted))
	}
}

func printDiff(d *bench.Diff, baseline string, tol float64) {
	fmt.Printf("baseline %s (tolerance %.0f%%): %d metrics compared, %d improved\n",
		baseline, tol*100, d.Compared, d.Improved)
	for _, m := range d.Missing {
		fmt.Printf("  MISSING %s\n", m)
	}
	for _, reg := range d.Regressions {
		fmt.Printf("  REGRESSION %s\n", reg)
	}
	if d.OK() {
		fmt.Println("  no regressions")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mapbench:", err)
	os.Exit(1)
}
