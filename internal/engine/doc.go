// Package engine is the concurrent mapping engine: a long-lived service
// core that amortizes expensive state across requests and runs the
// whole partition → initial mapping → TIMER pipeline behind one API.
//
// It owns three pieces:
//
//   - a TopologyCache sharing partial-cube labelings read-only across
//     requests, keyed by canonical topology spec ("grid:16x16", ...);
//   - a worker-pool job pipeline accepting mapping jobs (application
//     graph + topology spec + case c1–c4 + TIMER options), executing
//     them with bounded concurrency and per-stage timing;
//   - a batch/scenario runner fanning one graph out over many
//     topologies or many graphs over one topology (the paper's Section
//     7 evaluation is one such batch).
//
// Two orthogonal axes of parallelism coexist. Across jobs, the worker
// pool runs up to Options.Workers pipelines concurrently — the
// throughput axis, right for many small jobs. Within a job, wide mode
// (wide.go) lets an underloaded pool lend idle capacity to a single
// big job: the partition or DRB stage bisects both halves of a
// recursion node concurrently and the TIMER stage speculates upcoming
// hierarchy trials on helper goroutines — the latency axis, right for
// one big graph. Both axes preserve the engine's determinism contract: a job's
// quality fields (everything JobResult.StripPerf keeps) are
// byte-identical whether the job ran sequentially, wide, or on a busy
// pool. The "Concurrency & determinism" chapter of DESIGN.md documents
// the architecture — ownership rules, seed derivation, the wide-mode
// grant policy and why the equivalence holds.
//
// cmd/mapd serves the engine over HTTP; cmd/mapbench drives the bench
// harness through it; the repro facade re-exports it for library use.
package engine
