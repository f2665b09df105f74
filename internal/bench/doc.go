// Package bench is the scenario-matrix benchmark harness of the
// reproduction. The paper's contribution (conf_icpp_GlantzPM18) is an
// empirical claim — TIMER's partial-cube-label enhancement beats the
// greedy and DRB baselines on Coco and dilation across a graph ×
// topology matrix — so the repository needs a first-class way to run
// that matrix, record the outcome machine-readably, and catch a
// regression when the engine hot path changes.
//
// The harness has three layers:
//
//   - a declarative matrix (Spec): graph families from internal/netgen
//     × canonical topology specs from internal/topology × initial
//     mappers (random, IDENTITY, GREEDYALLC, GREEDYMIN, DRB/SCOTCH) ×
//     repetitions with derived per-rep seeds;
//   - a runner (Run) executing every cell as jobs on the concurrent
//     mapping engine's worker pool, collecting quality metrics (Coco,
//     cut, dilation, imbalance before/after enhancement) and
//     performance metrics (per-stage wall times from the engine's job
//     results, jobs/sec throughput);
//   - a baseline gate (Compare) diffing two result files with a
//     relative tolerance, so CI can fail when a quality metric
//     regresses.
//
// Quality metrics are deterministic for a fixed matrix and seed —
// byte-identical across runs once performance fields are stripped
// (StripPerf) — which is what makes the committed-baseline CI gate
// possible. That guarantee holds at any worker count and in wide mode;
// the "Concurrency & determinism" chapter of DESIGN.md explains why.
// cmd/mapbench is the CLI front-end, and its probe harness re-checks the
// guarantee under wide mode, the disk cache, the job ledger and the
// fleet router (mapbench -wide, -warm, -restart, -fleet), recording
// what each buys in RunPerf's probe fields. The repro facade re-exports
// the canonical matrices (Smoke, Paper) for library use and mapd serves
// them for clients.
package bench
