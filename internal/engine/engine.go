package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/jobstore"
	"repro/internal/mapping"
	"repro/internal/topology"
)

// ErrQueueFull is returned by Submit when the job queue is at capacity;
// the condition is transient and the submission can be retried.
var ErrQueueFull = errors.New("engine: queue full")

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("engine: closed")

// Options configures an Engine.
type Options struct {
	// Workers is the number of concurrent pipeline workers (default
	// GOMAXPROCS).
	Workers int
	// QueueCap bounds the number of queued-but-not-running jobs
	// (default 1024). Submit fails fast when the queue is full.
	QueueCap int
	// RetainJobs bounds the number of job records kept in memory
	// (default 16384): when a new submission would exceed it, the
	// oldest *finished* jobs are evicted (their IDs become unknown to
	// Get/Wait). Queued and running jobs are never evicted, so the
	// engine's memory stays bounded under sustained traffic without
	// dropping live work.
	RetainJobs int
	// CacheDir, when non-empty, attaches a persistent disk tier to the
	// engine's artifact cache (see ArtifactCache): memory evictions
	// spill to content-addressed snapshot files under this directory,
	// misses consult it before recomputing, and a restarted engine
	// pointed at the same directory warm-starts from the previous
	// process's artifacts. Multiple engines may share one directory
	// (writes are atomic and artifacts deterministic). If the directory
	// cannot be created the engine runs memory-only and reports the
	// failure via Stats.
	CacheDir string
	// DiskCacheBytes bounds the cache directory's total snapshot bytes
	// (LRU sweep by file mtime). Zero selects the 2 GiB default.
	DiskCacheBytes int64
	// JobDir, when non-empty, makes the engine durable: every job's
	// lifecycle is appended to a write-ahead log under this directory
	// (see internal/jobstore and durable.go), and a restarted engine
	// pointed at the same directory re-queues jobs that were submitted
	// but never finished, re-registers finished jobs under their old
	// IDs, and answers a resubmission of a done spec with its done job
	// (see Submit). If the ledger cannot be opened the engine runs
	// non-durable and reports the failure via Stats. Jobs whose graph
	// exists only as an in-memory object are executed but not logged
	// (they have no serializable identity; a restart may reissue their
	// IDs).
	JobDir string
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueCap <= 0 {
		o.QueueCap = 1024
	}
	if o.RetainJobs <= 0 {
		o.RetainJobs = 16384
	}
	return o
}

// jobRecord is the engine's mutable record of one job. Snapshots are
// handed out as Job values.
type jobRecord struct {
	mu   sync.Mutex
	job  Job
	done chan struct{} // closed when the job reaches a terminal status

	// durable and hash are set at submission (or ledger replay) time
	// and never mutated afterwards: they mark jobs whose lifecycle is
	// logged to the job ledger, keyed by the canonical spec hash.
	durable bool
	hash    string
}

// snapshot copies the job for a caller. It never includes the inline
// edge list, often tens of KB of JSON that the client already has; the
// record itself keeps the edges until the worker has run the job.
func (r *jobRecord) snapshot() Job {
	r.mu.Lock()
	defer r.mu.Unlock()
	j := r.job
	j.Spec.Graph.Edges = nil
	j.Stages = append([]Stage(nil), r.job.Stages...)
	return j
}

// finishedSpec is spec as every finished job's record keeps it: without
// the inline edge list and the pinned graph. A finished job is kept
// only for status reporting, and holding those inputs for up to
// RetainJobs records would grow the server's heap without bound.
func finishedSpec(spec JobSpec) JobSpec {
	spec.Graph.Edges = nil
	spec.Graph.G = nil
	return spec
}

// Engine is a concurrent mapping engine. Create one with New, share it
// freely (all methods are safe for concurrent use), and Close it when
// done.
type Engine struct {
	opt       Options
	cache     *TopologyCache
	artifacts *ArtifactCache

	mu      sync.Mutex
	jobs    map[string]*jobRecord
	order   []string // submission order, for listing
	nextID  int64
	closed  bool
	pending chan *jobRecord
	wg      sync.WaitGroup

	served  atomic.Int64 // jobs finished (done or failed) since New
	running atomic.Int64 // jobs currently executing on workers

	// Durability state (see durable.go): the job ledger (nil without
	// Options.JobDir, or after an open failure recorded in ledgerErr),
	// which also names the done job an identical resubmission is
	// answered with, and the recovery/idempotency counters surfaced
	// through Stats.
	ledger       *jobstore.Store
	ledgerErr    error
	recovered    int
	ledgerServed atomic.Int64
	interrupted  atomic.Int64

	// Drain state: draining flips once, drainCh is closed at the same
	// instant so queued waiters can be released (see BeginDrain).
	draining  atomic.Bool
	drainOnce sync.Once
	drainCh   chan struct{}

	// wideTokens is the engine-wide helper budget of wide mode: one
	// token per helper goroutine, max(1, Workers−1) in total, so wide
	// jobs borrow only the parallelism the pool actually has. wideJobs
	// and wideGrants are the cumulative counters served by Stats.
	wideTokens chan struct{}
	wideJobs   atomic.Int64
	wideGrants atomic.Int64

	// stageMu guards stageSecs, the cumulative wall time spent in each
	// pipeline stage across all worker-executed jobs — the operator's
	// view of the base-vs-TIMER split under load (served by /v1/stats).
	stageMu   sync.Mutex
	stageSecs map[string]float64

	// ingestMu guards the ingest registry (references to loaded
	// real-world graphs; see ingest.go) and its counters.
	ingestMu    sync.Mutex
	ingests     map[string]*ingestRecord
	ingestStats IngestStats

	// scratchMu guards scratch, the idle arena sets (see workerScratch).
	scratchMu sync.Mutex
	scratch   []*workerScratch
}

// workerScratch bundles one running job's arenas for the whole
// pipeline: the TIMER scratch of the enhancement stage and the
// base-stage scratch (partitioner + mapper) of everything before it.
// The engine keeps idle sets on a last-in-first-out stack: a job pops
// one when it starts and pushes it back as soon as its pipeline
// returns, so back-to-back jobs reuse the same warm buffers, and the
// engine holds as many sets as it has ever run jobs at once (at most
// Workers), not one per worker goroutine. A set keeps its high-water
// mark for the engine's lifetime.
type workerScratch struct {
	timer *core.Scratch
	base  *mapping.Scratch
}

func newWorkerScratch() *workerScratch {
	return &workerScratch{timer: core.NewScratch(), base: mapping.NewScratch()}
}

// takeScratch pops the most recently returned arena set, or builds one
// if none is idle.
func (e *Engine) takeScratch() *workerScratch {
	e.scratchMu.Lock()
	defer e.scratchMu.Unlock()
	n := len(e.scratch)
	if n == 0 {
		return newWorkerScratch()
	}
	ws := e.scratch[n-1]
	e.scratch[n-1] = nil
	e.scratch = e.scratch[:n-1]
	return ws
}

// returnScratch pushes an arena set back for the next job to start.
func (e *Engine) returnScratch(ws *workerScratch) {
	e.scratchMu.Lock()
	e.scratch = append(e.scratch, ws)
	e.scratchMu.Unlock()
}

// New creates an engine and starts its worker pool.
func New(opt Options) *Engine {
	opt = opt.withDefaults()
	e := &Engine{
		opt:       opt,
		cache:     NewTopologyCache(),
		artifacts: NewArtifactCache(defaultArtifactEntries, defaultArtifactBytes),
		jobs:      make(map[string]*jobRecord),
		stageSecs: make(map[string]float64),
		drainCh:   make(chan struct{}),
	}
	// Replay the job ledger (if configured) before the worker pool or
	// the pending channel exists: recovered-unfinished jobs are
	// requeued under their original IDs, and the channel is sized to
	// hold all of them even when they outnumber QueueCap (the queue
	// bound applies to new submissions, not to recovery).
	var requeue []*jobRecord
	if opt.JobDir != "" {
		requeue = e.replayLedger(opt.JobDir)
	}
	queueCap := opt.QueueCap
	if len(requeue) > queueCap {
		queueCap = len(requeue)
	}
	e.pending = make(chan *jobRecord, queueCap)
	for _, rec := range requeue {
		e.pending <- rec
	}
	e.recovered = len(requeue)
	helpers := opt.Workers - 1
	if helpers < 1 {
		helpers = 1
	}
	e.wideTokens = make(chan struct{}, helpers)
	for i := 0; i < helpers; i++ {
		e.wideTokens <- struct{}{}
	}
	if opt.CacheDir != "" {
		tier, err := newDiskTier(opt.CacheDir, opt.DiskCacheBytes)
		if err != nil {
			// New has no error return; keep the engine serving from
			// memory and surface the failure through Stats (mapd also
			// pre-validates the directory so operators fail fast).
			tier = disabledDiskTier(err)
		}
		e.artifacts.disk = tier
	}
	e.wg.Add(opt.Workers)
	for i := 0; i < opt.Workers; i++ {
		go e.worker()
	}
	return e
}

// Close stops accepting jobs, waits for in-flight jobs to finish, and
// shuts the worker pool down. Queued jobs are still executed.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		e.wg.Wait()
		return
	}
	e.closed = true
	close(e.pending)
	e.mu.Unlock()
	e.wg.Wait()
}

// Workers returns the worker-pool size.
func (e *Engine) Workers() int { return e.opt.Workers }

// QueueDepth returns the number of jobs queued but not yet started.
func (e *Engine) QueueDepth() int { return len(e.pending) }

// Cache exposes the engine's topology cache (shared, read-mostly).
func (e *Engine) Cache() *TopologyCache { return e.cache }

// Topology resolves a spec through the cache, building it on first use.
func (e *Engine) Topology(spec string) (*topology.Topology, error) {
	return e.cache.Get(spec)
}

// Submit enqueues a job and returns its snapshot (status "queued"). It
// fails if the engine is closed (ErrClosed), draining for shutdown
// (ErrDraining) or the queue is full (ErrQueueFull). On a durable
// engine, a spec whose identical twin the ledger holds as done is
// answered with that done job, without a new job or a recompute: its
// ID, spec and timestamps, its result flagged ServedFromLedger.
func (e *Engine) Submit(spec JobSpec) (Job, error) {
	if e.draining.Load() {
		return Job{}, ErrDraining
	}
	// Canonicalize, hash and look the hash up in the ledger before
	// taking e.mu: the hash marshals the whole spec, inline edges
	// included, the lookup waits on the ledger's lock, and every Get,
	// Wait, Jobs and Stats call waits on e.mu. e.ledger is only assigned
	// during New.
	var hash string
	var specJSON []byte
	durable := false
	if e.ledger != nil {
		if ds, ok := durableSpec(spec); ok {
			var err error
			specJSON, hash, err = canonicalSpec(ds)
			durable = err == nil
		}
		if durable {
			if job, ok := e.serveDone(hash); ok {
				return job, nil
			}
		}
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return Job{}, ErrClosed
	}
	// Only Submit (serialized by e.mu) ever adds to pending, so a
	// capacity check here guarantees the send below cannot block — and
	// lets the submitted record hit the WAL before the job becomes
	// visible to any worker.
	if len(e.pending) >= cap(e.pending) {
		e.mu.Unlock()
		return Job{}, fmt.Errorf("%w (%d jobs pending)", ErrQueueFull, e.opt.QueueCap)
	}
	e.nextID++
	rec := &jobRecord{
		job: Job{
			ID:        fmt.Sprintf("job-%06d", e.nextID),
			Spec:      spec,
			Status:    StatusQueued,
			Submitted: time.Now(),
		},
		done:    make(chan struct{}),
		durable: durable,
		hash:    hash,
	}
	e.logSubmitted(rec, specJSON)
	// Snapshot before a worker can see the job, so the caller always
	// gets it queued.
	job := rec.snapshot()
	e.pending <- rec
	e.jobs[rec.job.ID] = rec
	e.order = append(e.order, rec.job.ID)
	e.evictLocked()
	e.mu.Unlock()
	return job, nil
}

// evictLocked drops the oldest finished job records while more than
// RetainJobs are held. Caller holds e.mu.
func (e *Engine) evictLocked() {
	for len(e.order) > e.opt.RetainJobs {
		evicted := false
		for i, id := range e.order {
			rec := e.jobs[id]
			select {
			case <-rec.done:
				delete(e.jobs, id)
				e.order = append(e.order[:i], e.order[i+1:]...)
				evicted = true
			default:
				continue
			}
			break
		}
		if !evicted {
			return // everything retained is still queued or running
		}
	}
}

// Get returns a snapshot of the job with the given ID.
func (e *Engine) Get(id string) (Job, bool) {
	e.mu.Lock()
	rec, ok := e.jobs[id]
	e.mu.Unlock()
	if !ok {
		return Job{}, false
	}
	return rec.snapshot(), true
}

// Wait blocks until the job finishes (done or failed) and returns its
// final snapshot.
func (e *Engine) Wait(id string) (Job, error) {
	return e.WaitCtx(context.Background(), id)
}

// WaitCtx blocks until the job finishes (done or failed) and returns
// its final snapshot, or returns the context's error as soon as ctx is
// canceled. The job itself keeps running either way — cancellation only
// abandons this wait, so an HTTP handler waiting on behalf of a
// disconnected client releases its goroutine instead of leaking it for
// the rest of the job's runtime.
func (e *Engine) WaitCtx(ctx context.Context, id string) (Job, error) {
	e.mu.Lock()
	rec, ok := e.jobs[id]
	e.mu.Unlock()
	if !ok {
		return Job{}, fmt.Errorf("engine: unknown job %q", id)
	}
	select {
	case <-rec.done:
		return rec.snapshot(), nil
	default:
	}
	select {
	case <-rec.done:
		return rec.snapshot(), nil
	case <-ctx.Done():
		return Job{}, ctx.Err()
	case <-e.drainCh:
		// A draining engine releases its waiters (mapd turns this into
		// 503 + Retry-After) instead of holding HTTP handlers across the
		// shutdown. Finished jobs are still snapshotted above.
		return Job{}, ErrDraining
	}
}

// Jobs lists snapshots of all jobs in submission order.
func (e *Engine) Jobs() []Job {
	e.mu.Lock()
	recs := make([]*jobRecord, 0, len(e.order))
	for _, id := range e.order {
		recs = append(recs, e.jobs[id])
	}
	e.mu.Unlock()
	out := make([]Job, len(recs))
	for i, r := range recs {
		out[i] = r.snapshot()
	}
	return out
}

// Run executes a job synchronously on the calling goroutine, bypassing
// the queue (library convenience; the topology still goes through the
// cache). The job is not registered in the engine's job table. Per-stage
// timings are in the result's Stages field. The pipeline runs on a
// fresh worker scratch, so it takes the same storage path as a queued
// job. Run never widens — it is the sequential reference wide mode is
// measured against; Spec.Wide only takes effect on submitted jobs.
func (e *Engine) Run(spec JobSpec) (*JobResult, error) {
	return e.runPipeline(spec, nil, newWorkerScratch(), nil)
}

// Stats is a point-in-time snapshot of the engine's pool state, served
// by mapd's GET /v1/stats.
type Stats struct {
	// Workers is the worker-pool size; QueueDepth/QueueCap describe the
	// pending-job queue.
	Workers    int `json:"workers"`
	QueueDepth int `json:"queue_depth"`
	QueueCap   int `json:"queue_cap"`
	// JobsServed counts jobs finished (done or failed) since the engine
	// started; JobsRetained is the number of job records currently held
	// for status reporting (bounded by RetainJobs).
	JobsServed   int64 `json:"jobs_served"`
	JobsRetained int   `json:"jobs_retained"`
	RetainCap    int   `json:"retain_cap"`
	// StageSeconds is the cumulative wall time spent in each pipeline
	// stage across all worker-executed jobs since the engine started
	// ("partition"/"drb"/"map" are the base stage, "enhance" is TIMER),
	// so operators can watch the base-vs-enhancement split under load.
	StageSeconds map[string]float64 `json:"stage_seconds,omitempty"`
	// WideJobs counts jobs that ran with at least one wide-mode helper
	// goroutine; WideGrants counts the helpers granted in total (see
	// wide.go). Both stay 0 on an engine that never widened.
	WideJobs   int64 `json:"wide_jobs,omitempty"`
	WideGrants int64 `json:"wide_grants,omitempty"`
	// Artifacts snapshots the content-addressed artifact cache — how
	// many materialized graphs and partitions are resident and how often
	// jobs were served from it instead of recomputing. Always set.
	Artifacts *ArtifactStats `json:"artifacts,omitempty"`
	// Ingest snapshots the ingest registry and its counters. Nil until
	// the first ingest, so engines that never load real-world graphs
	// keep their stats payload unchanged.
	Ingest *IngestStats `json:"ingest,omitempty"`
	// JobStore snapshots the durable job ledger and the engine's
	// recovery/idempotency counters (see durable.go). Nil when the
	// engine was built without Options.JobDir.
	JobStore *JobStoreStats `json:"job_store,omitempty"`
	// Draining reports that the engine has begun shutting down: new
	// submissions are refused and waiters are released.
	Draining bool `json:"draining,omitempty"`
}

// Stats returns the engine's pool statistics.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	retained := len(e.jobs)
	e.mu.Unlock()
	e.stageMu.Lock()
	stages := make(map[string]float64, len(e.stageSecs))
	for name, sec := range e.stageSecs {
		stages[name] = sec
	}
	e.stageMu.Unlock()
	st := Stats{
		Workers:      e.opt.Workers,
		QueueDepth:   len(e.pending),
		QueueCap:     e.opt.QueueCap,
		JobsServed:   e.served.Load(),
		JobsRetained: retained,
		RetainCap:    e.opt.RetainJobs,
		StageSeconds: stages,
		WideJobs:     e.wideJobs.Load(),
		WideGrants:   e.wideGrants.Load(),
	}
	as := e.artifacts.Stats()
	st.Artifacts = &as
	if is, active := e.IngestSnapshot(); active {
		st.Ingest = &is
	}
	st.JobStore = e.jobStoreStats()
	st.Draining = e.draining.Load()
	return st
}

func (e *Engine) worker() {
	defer e.wg.Done()
	for rec := range e.pending {
		if e.draining.Load() {
			// A draining engine executes nothing new: hand the job back to
			// the ledger as interrupted; a restart requeues it.
			e.interrupt(rec)
			continue
		}
		e.execute(rec)
	}
}

func (e *Engine) execute(rec *jobRecord) {
	e.running.Add(1)
	defer e.running.Add(-1)
	rec.mu.Lock()
	rec.job.Status = StatusRunning
	rec.job.Started = time.Now()
	spec := rec.job.Spec
	rec.mu.Unlock()
	e.logRunning(rec)

	// The arena set goes back before the job is logged or reported
	// finished, so a client that waits for this job and submits its next
	// one finds the set this job warmed instead of building another.
	ws := e.takeScratch()
	res, err := e.runGuarded(spec, rec, ws)
	e.returnScratch(ws)
	e.logFinished(rec, spec, res, err)

	rec.mu.Lock()
	rec.job.Stage = ""
	rec.job.Finished = time.Now()
	if err != nil {
		rec.job.Status = StatusFailed
		rec.job.Error = err.Error()
	} else {
		rec.job.Status = StatusDone
		rec.job.Result = res
	}
	rec.job.Spec = finishedSpec(rec.job.Spec)
	// Count the job served before its done channel closes: a client that
	// observed the job finished must never read a stats snapshot that
	// has not counted it yet.
	e.served.Add(1)
	rec.mu.Unlock()
	close(rec.done)
}

// runGuarded runs the pipeline and converts panics into job failures: a
// malformed job must never take the worker (and with it the whole
// service) down.
func (e *Engine) runGuarded(spec JobSpec, rec *jobRecord, ws *workerScratch) (res *JobResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("engine: job panicked: %v", r)
		}
	}()
	st := &wideState{}
	res, err = e.runPipeline(spec, func(name string, seconds float64) {
		if seconds >= 0 {
			e.stageMu.Lock()
			e.stageSecs[name] += seconds
			e.stageMu.Unlock()
		}
		rec.mu.Lock()
		if seconds < 0 {
			rec.job.Stage = name
		} else {
			rec.job.Stages = append(rec.job.Stages, Stage{Name: name, Seconds: seconds})
		}
		rec.mu.Unlock()
	}, ws, e.spawnFor(spec.Wide, st))
	if g := st.grants.Load(); g > 0 {
		e.wideGrants.Add(g)
		e.wideJobs.Add(1)
	}
	if perr := st.err(); perr != nil && err == nil {
		res, err = nil, perr
	}
	if res != nil {
		res.Width = st.width()
	}
	return res, err
}
