package engine

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/jobstore"
)

// ErrDraining is returned by Submit and WaitCtx while the engine is
// draining for shutdown: no new work is accepted, and waiters are told
// to come back after the restart instead of hanging on a queue that is
// being handed back to the ledger.
var ErrDraining = errors.New("engine: draining for shutdown")

// durableSpec reduces a job spec to its serializable, replayable core,
// or reports that the job cannot be made durable. Two reductions apply:
// a graph pinned next to its provenance (the batch fan-out path pins
// the materialized G beside the Network/Ref/Edges that produced it) is
// dropped in favor of the provenance, which replay re-materializes
// deterministically; defaults are resolved so that two specs differing
// only in spelled-out defaults hash identically. A spec whose graph
// exists only as an in-memory object (library callers) has no
// serializable identity: the job still runs, it just is not logged.
func durableSpec(spec JobSpec) (JobSpec, bool) {
	spec = spec.withDefaults()
	if spec.Graph.G != nil {
		if spec.Graph.Network == "" && spec.Graph.Ref == "" && len(spec.Graph.Edges) == 0 {
			return JobSpec{}, false
		}
		spec.Graph.G = nil
	}
	return spec, true
}

// canonicalSpec marshals a durable spec to its canonical JSON and
// returns the bytes with their fingerprint — the idempotency key under
// which finished results are re-served. encoding/json emits struct
// fields in declaration order, so equal specs marshal to equal bytes.
func canonicalSpec(spec JobSpec) ([]byte, string, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, "", err
	}
	return body, graph.FingerprintBytes(body).String(), nil
}

// SpecHash returns the canonical spec hash of a job — the idempotency
// key under which the engine dedups finished results and re-serves
// identical resubmissions from the ledger. It is the fingerprint of the
// spec's canonical JSON after default resolution and provenance
// reduction (a pinned graph with provenance hashes by its provenance).
// ok is false when the spec has no serializable identity (a
// provenance-free pinned graph): such jobs run but cannot be
// deduplicated, logged, or safely retried against another replica.
// Fleet components route and retry on this hash: equal hash means a
// resubmission is byte-identical idempotent, so failover is safe.
func SpecHash(spec JobSpec) (string, bool) {
	ds, ok := durableSpec(spec)
	if !ok {
		return "", false
	}
	_, hash, err := canonicalSpec(ds)
	if err != nil {
		return "", false
	}
	return hash, true
}

// closedChan returns an already-closed done channel for job records
// that are born finished (ledger replays, dedup serves).
func closedChan() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}

// replayLedger opens the job ledger in dir and folds its recovered
// state into the (still single-threaded) engine: finished jobs are
// re-registered so their IDs keep resolving and their results keep
// serving duplicate submissions; unfinished jobs are returned for the
// caller to requeue once the pending channel exists. A ledger that
// cannot be opened degrades the engine to non-durable operation and is
// reported through Stats, mirroring the disk-tier policy.
func (e *Engine) replayLedger(dir string) (requeue []*jobRecord) {
	store, recv, err := jobstore.Open(dir, jobstore.Options{})
	if err != nil {
		e.ledgerErr = err
		return nil
	}
	e.ledger = store
	for _, js := range recv.Jobs {
		var n int64
		if _, err := fmt.Sscanf(js.ID, "job-%d", &n); err == nil && n > e.nextID {
			e.nextID = n
		}
		var spec JobSpec
		if len(js.Spec) > 0 {
			// A spec that no longer parses (schema skew across a version
			// bump) forfeits replay for this job; terminal records still
			// serve their payloads below.
			if err := json.Unmarshal(js.Spec, &spec); err != nil && !js.Finished() {
				continue
			}
		}
		switch js.Op {
		case jobstore.OpDone:
			var res JobResult
			if err := json.Unmarshal(js.Result, &res); err != nil {
				continue
			}
			rec := &jobRecord{job: Job{
				ID: js.ID, Spec: spec, Status: StatusDone, Result: &res,
			}, done: closedChan()}
			e.jobs[js.ID] = rec
			e.order = append(e.order, js.ID)
			if js.Hash != "" {
				e.dedup[js.Hash] = js.Result
			}
		case jobstore.OpFailed:
			rec := &jobRecord{job: Job{
				ID: js.ID, Spec: spec, Status: StatusFailed, Error: js.Error,
			}, done: closedChan()}
			e.jobs[js.ID] = rec
			e.order = append(e.order, js.ID)
		default:
			// Submitted, running or interrupted: promised but not delivered.
			// Requeue under the original ID; the submitted record is already
			// in the log, so the restart itself appends nothing.
			if len(js.Spec) == 0 {
				continue
			}
			rec := &jobRecord{job: Job{
				ID: js.ID, Spec: spec, Status: StatusQueued, Submitted: time.Now(),
			}, done: make(chan struct{}), durable: true, hash: js.Hash}
			e.jobs[js.ID] = rec
			e.order = append(e.order, js.ID)
			requeue = append(requeue, rec)
		}
	}
	e.evictLocked()
	return requeue
}

// logSubmitted appends the job's submitted record; a failed append
// degrades durability (counted by the store) but never fails the
// submission itself.
func (e *Engine) logSubmitted(rec *jobRecord, specJSON []byte) {
	if e.ledger == nil || !rec.durable {
		return
	}
	_ = e.ledger.Submitted(rec.job.ID, rec.hash, specJSON)
}

// logRunning appends the job's running record.
func (e *Engine) logRunning(rec *jobRecord) {
	if e.ledger == nil || !rec.durable {
		return
	}
	_ = e.ledger.Running(rec.job.ID)
}

// logFinished appends the job's terminal record and, for successful
// jobs, registers the result under its spec hash so identical
// resubmissions are served from the ledger instead of recomputed.
func (e *Engine) logFinished(rec *jobRecord, res *JobResult, jobErr error) {
	if e.ledger == nil || !rec.durable {
		return
	}
	if jobErr != nil {
		_ = e.ledger.Failed(rec.job.ID, jobErr.Error())
		return
	}
	body, err := json.Marshal(res)
	if err != nil {
		return
	}
	if e.ledger.Done(rec.job.ID, rec.hash, body) == nil {
		e.mu.Lock()
		e.dedup[rec.hash] = body
		e.mu.Unlock()
	}
}

// dedupServe looks up a finished result for the spec hash and, when
// found, registers a new already-done job serving it. Caller holds
// e.mu. The served copy is flagged ServedFromLedger (a perf field,
// stripped by StripPerf) so clients and the bench harness can count
// recompute-free submissions.
func (e *Engine) dedupServe(hash string, spec JobSpec) (*jobRecord, bool) {
	raw, ok := e.dedup[hash]
	if !ok {
		return nil, false
	}
	var res JobResult
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, false
	}
	res.ServedFromLedger = true
	e.nextID++
	rec := &jobRecord{job: Job{
		ID:        fmt.Sprintf("job-%06d", e.nextID),
		Spec:      spec,
		Status:    StatusDone,
		Result:    &res,
		Submitted: time.Now(),
		Finished:  time.Now(),
	}, done: closedChan()}
	rec.job.Spec.Graph.Edges = nil
	rec.job.Spec.Graph.G = nil
	e.jobs[rec.job.ID] = rec
	e.order = append(e.order, rec.job.ID)
	e.dedupServed.Add(1)
	e.evictLocked()
	return rec, true
}

// Draining reports whether BeginDrain has been called.
func (e *Engine) Draining() bool { return e.draining.Load() }

// BeginDrain switches the engine into shutdown mode: Submit starts
// returning ErrDraining, queued jobs are handed back to the ledger as
// interrupted (their waiters wake with StatusInterrupted) instead of
// executed, and WaitCtx calls are released with ErrDraining so HTTP
// handlers can answer 503 + Retry-After rather than hang. Running jobs
// keep running; use DrainAndClose to wait for them.
func (e *Engine) BeginDrain() {
	e.drainOnce.Do(func() {
		e.draining.Store(true)
		close(e.drainCh)
	})
}

// DrainAndClose gracefully shuts the engine down: it begins draining,
// stops the queue, waits up to timeout for running jobs to finish
// (queued jobs are interrupted, not executed), and syncs and closes
// the job ledger. A timeout returns an error with the ledger synced
// but still open — the process is expected to exit anyway, and the
// WAL's record-level durability already covers whatever the stragglers
// manage to log.
func (e *Engine) DrainAndClose(timeout time.Duration) error {
	e.BeginDrain()
	e.mu.Lock()
	if !e.closed {
		e.closed = true
		close(e.pending)
	}
	e.mu.Unlock()
	done := make(chan struct{})
	go func() {
		e.wg.Wait()
		close(done)
	}()
	var timedOut error
	select {
	case <-done:
	case <-time.After(timeout):
		timedOut = fmt.Errorf("engine: drain timed out after %v", timeout)
	}
	if e.ledger != nil {
		_ = e.ledger.Sync()
		if timedOut == nil {
			_ = e.ledger.Close()
		}
	}
	return timedOut
}

// interrupt finishes a queued job without executing it: the drain path
// of the worker loop. The ledger gets an interrupted record (replay
// requeues the job), the waiters get StatusInterrupted.
func (e *Engine) interrupt(rec *jobRecord) {
	rec.mu.Lock()
	rec.job.Status = StatusInterrupted
	rec.job.Error = ErrDraining.Error()
	rec.job.Finished = time.Now()
	id := rec.job.ID
	durable := rec.durable
	rec.job.Spec.Graph.Edges = nil
	rec.job.Spec.Graph.G = nil
	rec.mu.Unlock()
	if durable && e.ledger != nil {
		_ = e.ledger.Interrupted(id)
	}
	e.interrupted.Add(1)
	close(rec.done)
}

// JobStoreStats is the durability slice of Stats: the ledger's WAL
// footprint plus the engine-level recovery and idempotency counters.
// Nil when Options.JobDir is unset.
type JobStoreStats struct {
	// Dir is the ledger directory; Error is non-empty when the ledger
	// could not be opened and the engine degraded to non-durable
	// operation.
	Dir   string `json:"dir,omitempty"`
	Error string `json:"error,omitempty"`
	// Segments, WALBytes and WALRecords describe the log itself:
	// current segment files, their byte footprint, and verified records
	// (replayed + appended).
	Segments   int   `json:"segments,omitempty"`
	WALBytes   int64 `json:"wal_bytes"`
	WALRecords int64 `json:"wal_records"`
	// JobsRecovered counts unfinished jobs requeued at startup;
	// DedupServed counts submissions answered from the ledger without
	// recomputation; Interrupted counts queued jobs handed back to the
	// ledger by a drain.
	JobsRecovered int   `json:"jobs_recovered"`
	DedupServed   int64 `json:"dedup_served"`
	Interrupted   int64 `json:"interrupted,omitempty"`
	// Unfinished is the ledger's current requeue-on-restart set;
	// Compactions and AppendErrors are the store's maintenance and
	// degradation counters.
	Unfinished   int   `json:"unfinished,omitempty"`
	Compactions  int64 `json:"compactions,omitempty"`
	AppendErrors int64 `json:"append_errors,omitempty"`
}

// jobStoreStats assembles the durability stats slice, nil when the
// engine was built without a JobDir.
func (e *Engine) jobStoreStats() *JobStoreStats {
	if e.ledger == nil && e.ledgerErr == nil {
		return nil
	}
	st := &JobStoreStats{
		JobsRecovered: e.recovered,
		DedupServed:   e.dedupServed.Load(),
		Interrupted:   e.interrupted.Load(),
	}
	if e.ledgerErr != nil {
		st.Dir = e.opt.JobDir
		st.Error = e.ledgerErr.Error()
		return st
	}
	ls := e.ledger.Stats()
	st.Dir = ls.Dir
	st.Segments = ls.Segments
	st.WALBytes = ls.Bytes
	st.WALRecords = ls.Records
	st.Unfinished = ls.Unfinished
	st.Compactions = ls.Compactions
	st.AppendErrors = ls.AppendErrors
	return st
}
