package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/api"
	"repro/internal/engine"
	"repro/internal/mapclient"
)

// Handler returns the router's HTTP surface, six of mapd's routes, and
// answers every other request with a JSON 404 or 405:
//
//	POST /v1/jobs          route one job by its spec hash
//	POST /v1/batches       expand a batch and scatter its jobs
//	GET  /v1/jobs/{id}     proxy a snapshot (add ?wait=1 to park until
//	                       terminal; survives replica death by requeue)
//	GET  /v1/stats         per-replica health, breaker state, failovers
//	GET  /healthz          router liveness + usable-replica count
//	GET  /readyz           200 while ≥1 replica is usable, else 503
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", rt.submitJob)
	mux.HandleFunc("POST /v1/batches", rt.submitBatch)
	mux.HandleFunc("GET /v1/jobs/{id}", rt.getJob)
	mux.HandleFunc("GET /v1/stats", rt.statsHandler)
	mux.HandleFunc("GET /healthz", rt.healthz)
	mux.HandleFunc("GET /readyz", rt.readyz)
	return api.Handler(mux)
}

// writeUpstreamError answers an upstream failure: an upstream API error
// keeps its status and Retry-After, and any other failure, such as a
// transport error or no usable replica, becomes 503 + Retry-After 1,
// the fleet's "draining, come back". jobIDs are the jobs a batch placed
// before the failure.
func writeUpstreamError(w http.ResponseWriter, err error, jobIDs ...string) {
	apiErr := &mapclient.APIError{Status: http.StatusServiceUnavailable, RetryAfter: time.Second}
	errors.As(err, &apiErr)
	if apiErr.RetryAfter > 0 {
		api.SetRetryAfter(w, int(apiErr.RetryAfter/time.Second))
	}
	api.WriteError(w, apiErr.Status, err, jobIDs...)
}

// submitJob decodes the spec with engine.DecodeSpec, as mapd does,
// routes it by its spec hash and forwards the client's bytes
// unchanged: the replica decodes them with the same decoder, so it
// accepts them too.
func (rt *Router) submitJob(w http.ResponseWriter, r *http.Request) {
	body, err := api.ReadBody(w, r, api.MaxBody)
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, fmt.Errorf("reading job spec: %w", err))
		return
	}
	spec, err := engine.DecodeSpec(body)
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, fmt.Errorf("decoding job spec: %w", err))
		return
	}
	key := routingKey(spec, body)
	rep, remote, err := rt.place(r.Context(), body, key, nil)
	if err != nil {
		writeUpstreamError(w, err)
		return
	}
	rj := rt.register(body, key, rep, remote)
	remote.ID = rj.id
	api.WriteJSON(w, http.StatusAccepted, remote)
}

func (rt *Router) submitBatch(w http.ResponseWriter, r *http.Request) {
	var batch engine.BatchSpec
	if err := api.DecodeJSON(w, r, api.MaxBody, &batch); err != nil {
		api.WriteError(w, http.StatusBadRequest, fmt.Errorf("decoding batch spec: %w", err))
		return
	}
	// Past RetainJobs records the router forgets finished jobs, read or
	// not, so a larger batch could lose its first jobs before the client
	// polls them.
	specs, err := engine.ExpandBatch(batch, rt.cfg.RetainJobs)
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, err)
		return
	}
	ids := make([]string, 0, len(specs))
	for _, spec := range specs {
		specJSON, err := engine.MarshalSpec(spec)
		if err != nil {
			api.WriteError(w, http.StatusBadRequest, err)
			return
		}
		key := routingKey(spec, specJSON)
		rep, remote, err := rt.place(r.Context(), specJSON, key, nil)
		if err != nil {
			// Jobs placed before the failure keep running; hand their
			// IDs back so the client can still track them, mirroring
			// mapd's own partial-batch contract.
			writeUpstreamError(w, err, ids...)
			return
		}
		ids = append(ids, rt.register(specJSON, key, rep, remote).id)
	}
	api.WriteJSON(w, http.StatusAccepted, map[string]any{"job_ids": ids})
}

func (rt *Router) getJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rt.mu.Lock()
	rj, ok := rt.jobs[id]
	rt.mu.Unlock()
	if !ok {
		api.WriteError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	wait := r.URL.Query().Get("wait") == "1" || r.URL.Query().Get("wait") == "true"
	job, err := rt.fetch(r, rj, wait)
	if err != nil {
		writeUpstreamError(w, err)
		return
	}
	job.ID = rj.id
	api.WriteJSON(w, http.StatusOK, job)
}

// fetch proxies one snapshot or wait call to the job's current
// placement, requeueing the job onto another replica when the current
// one is dead or has forgotten it. A job the router has already relayed
// as final is answered from its kept snapshot, with no upstream call.
// The wait variant loops: a requeue mid-wait is invisible to the client
// beyond added latency. The plain variant asks the new placement once.
func (rt *Router) fetch(r *http.Request, rj *routedJob, wait bool) (engine.Job, error) {
	ctx := r.Context()
	for first := true; ; first = false {
		final, rep, remoteID := rj.state()
		if final != nil {
			return *final, nil
		}
		var job engine.Job
		var err error
		if wait {
			job, err = rep.client.WaitJob(ctx, remoteID)
		} else {
			job, err = rep.client.GetJob(ctx, remoteID)
		}
		switch {
		case err == nil:
			rep.breaker.success()
			rj.settle(job)
			return job, nil
		case ctx.Err() != nil, !first && !wait:
			return engine.Job{}, err
		case notFound(err):
			// The replica restarted past this job; move it. No breaker
			// penalty — the replica answered.
		case retryable(err):
			rep.breaker.failure()
			rep.failures.Add(1)
		default:
			return engine.Job{}, err
		}
		if rqErr := rt.requeue(ctx, rj, rep, remoteID); rqErr != nil {
			if !wait {
				return engine.Job{}, rqErr
			}
			// Every replica is briefly unusable (e.g. the fleet's sole
			// replica is restarting). Parked waiters ride it out.
			if sErr := sleepCtx(ctx, 300*time.Millisecond); sErr != nil {
				return engine.Job{}, rqErr
			}
		}
	}
}

func (rt *Router) usableCount() int {
	n := 0
	for _, rep := range rt.replicas {
		if rep.ready.Load() {
			n++
		}
	}
	return n
}

func (rt *Router) statsHandler(w http.ResponseWriter, r *http.Request) {
	reps := make([]map[string]any, 0, len(rt.replicas))
	for _, rep := range rt.replicas {
		row := rep.stats()
		if r.URL.Query().Get("deep") == "1" {
			if up := rep.decodeStats(r.Context()); up != nil {
				row["upstream"] = up
			}
		}
		reps = append(reps, row)
	}
	rt.mu.Lock()
	routed := len(rt.jobs)
	rt.mu.Unlock()
	api.WriteJSON(w, http.StatusOK, map[string]any{
		"replicas":    reps,
		"usable":      rt.usableCount(),
		"failovers":   rt.failovers.Load(),
		"requeues":    rt.requeues.Load(),
		"routed_jobs": routed,
	})
}

func (rt *Router) healthz(w http.ResponseWriter, r *http.Request) {
	api.WriteJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"replicas": len(rt.replicas),
		"usable":   rt.usableCount(),
	})
}

func (rt *Router) readyz(w http.ResponseWriter, r *http.Request) {
	if rt.usableCount() == 0 {
		writeUpstreamError(w, errNoReplica)
		return
	}
	api.WriteJSON(w, http.StatusOK, map[string]any{
		"status": "ready",
		"usable": rt.usableCount(),
	})
}

// sleepCtx sleeps for d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
