package main

import (
	"context"
	"fmt"

	"repro/internal/engine"
)

// system is what the workload's clients call: an in-process engine, or
// mapclient in front of the router and its mapd replicas.
type system interface {
	// run submits spec as job seq and waits for its terminal snapshot.
	run(ctx context.Context, spec engine.JobSpec, seq int, rec *recorder) (engine.Job, error)
	// resubmit sends spec again after its twin finished and returns the
	// answer; ok is false for systems without a job ledger.
	resubmit(ctx context.Context, spec engine.JobSpec, seq int, rec *recorder) (job engine.Job, ok bool, err error)
	// engines are the engines doing the work, for their counters.
	engines() []*engine.Engine
	// faults returns the client retries, router failovers and mapd
	// sheds so far; all stay 0 on a healthy run.
	faults(ctx context.Context) (retries, failovers, shed int64, err error)
	close()
}

// inproc is a default-option engine in the benchmark's process, driven
// through Submit and WaitCtx.
type inproc struct{ eng *engine.Engine }

func newInproc() *inproc { return &inproc{eng: engine.New(engine.Options{})} }

func (s *inproc) run(ctx context.Context, spec engine.JobSpec, seq int, rec *recorder) (engine.Job, error) {
	t0 := rec.now()
	job, err := s.eng.Submit(spec)
	rec.add("engine.Submit", t0, seq)
	if err != nil {
		return job, err
	}
	t1 := rec.now()
	job, err = s.eng.WaitCtx(ctx, job.ID)
	rec.add("engine.WaitCtx", t1, seq)
	return job, err
}

func (s *inproc) resubmit(context.Context, engine.JobSpec, int, *recorder) (engine.Job, bool, error) {
	return engine.Job{}, false, nil
}

func (s *inproc) engines() []*engine.Engine { return []*engine.Engine{s.eng} }

func (s *inproc) faults(context.Context) (int64, int64, int64, error) { return 0, 0, 0, nil }

func (s *inproc) close() { s.eng.Close() }

// engineCounters sums the counters of engines that the per-layer
// metrics take deltas of.
type engineCounters struct {
	artHits, artMisses, artWaits int64
	wideGrants                   int64
	walRecords, dedupServed      int64
}

func countEngines(engs []*engine.Engine) engineCounters {
	var c engineCounters
	for _, e := range engs {
		st := e.Stats()
		if st.Artifacts != nil {
			c.artHits += st.Artifacts.Hits
			c.artMisses += st.Artifacts.Misses
			c.artWaits += st.Artifacts.InflightWaits
		}
		c.wideGrants += st.WideGrants
		if st.JobStore != nil {
			c.walRecords += st.JobStore.WALRecords
			c.dedupServed += st.JobStore.DedupServed
		}
	}
	return c
}

func (c engineCounters) sub(o engineCounters) engineCounters {
	return engineCounters{
		artHits: c.artHits - o.artHits, artMisses: c.artMisses - o.artMisses, artWaits: c.artWaits - o.artWaits,
		wideGrants: c.wideGrants - o.wideGrants,
		walRecords: c.walRecords - o.walRecords, dedupServed: c.dedupServed - o.dedupServed,
	}
}

// hitRate is the artifact cache's (hits + coalesced waits) / lookups.
func (c engineCounters) hitRate() float64 {
	total := c.artHits + c.artWaits + c.artMisses
	if total == 0 {
		return 0
	}
	return float64(c.artHits+c.artWaits) / float64(total)
}

// terminal reports whether a job snapshot is final.
func terminal(j engine.Job) bool {
	return j.Status == engine.StatusDone || j.Status == engine.StatusFailed
}

// doneResult returns the result of a job that must have finished done.
func doneResult(j engine.Job) (*engine.JobResult, error) {
	if j.Status != engine.StatusDone || j.Result == nil {
		return nil, fmt.Errorf("job %s finished %s: %s", j.ID, j.Status, j.Error)
	}
	return j.Result, nil
}
