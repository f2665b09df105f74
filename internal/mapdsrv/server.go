// Package mapdsrv implements the mapd HTTP API as an importable
// handler: cmd/mapd mounts it on its listener, and internal/fleet's
// router and chaos tests and perfbench's service workload use it to
// run real replica servers in-process or in killable child processes
// instead of mocking the API.
package mapdsrv

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/ingest"
)

// server exposes an engine over HTTP:
//
//	POST /v1/jobs          submit a mapping job (engine.JobSpec JSON)
//	POST /v1/batches       submit a batch (engine.BatchSpec JSON)
//	GET  /v1/jobs          list all jobs
//	GET  /v1/jobs/{id}     one job: status, stage timings, result
//	                       (?wait=1 blocks until the job finishes)
//	POST /v1/graphs        ingest a real-world graph: a JSON body
//	                       {"path": ...} ingests server-side, any other
//	                       body is the graph bytes themselves (SNAP /
//	                       Matrix Market / METIS, auto-detected); returns
//	                       the registration with its "ref" for job specs
//	GET  /v1/graphs        list ingested graphs
//	GET  /v1/graphs/{ref}  one ingested graph's registration
//	GET  /v1/topologies    topology cache contents + hit/miss stats
//	GET  /v1/bench/matrices  canonical benchmark matrices (smoke, paper)
//	GET  /v1/stats         runtime + pool statistics (goroutines, jobs served)
//	GET  /healthz          liveness + pool stats (always 200 while the
//	                       process serves; a "draining" field flips
//	                       during shutdown)
//	GET  /readyz           readiness: 200 while accepting work, 503 +
//	                       Retry-After while draining, so routers and
//	                       load balancers de-pool the replica before
//	                       its listener goes away
//	GET  /debug/pprof/*    CPU/heap/goroutine profiles (only with -pprof)
//	anything else          a JSON 404 or 405 (api.Handler)
type server struct {
	eng *engine.Engine
	// maxBody caps request bodies (job specs, batch specs and graph
	// uploads alike).
	maxBody int64
	// limit is the per-client admission limiter; nil admits everything.
	limit *limiter
	// shedTotal counts every load-shedding response (quota, queue-full
	// and draining alike) served by this handler. Per-server rather than
	// process-wide so in-process fleet replicas count independently.
	shedTotal atomic.Int64
}

// Config bundles New's knobs, all optional.
type Config struct {
	// Pprof mounts net/http/pprof under /debug/pprof/ when true: opt-in,
	// as profiling endpoints on a production port are an operator's call.
	Pprof bool
	// MaxBody caps request bodies in bytes (0 = api.MaxBody, 64 MiB).
	MaxBody int64
	// QuotaRate is the per-client submission quota in requests/second
	// (0 = unlimited; see admission.go); QuotaBurst the burst above it
	// (0 = 2x the rate).
	QuotaRate  float64
	QuotaBurst int
}

// New builds the mapd HTTP handler around an engine.
func New(eng *engine.Engine, cfg Config) http.Handler {
	maxBody := cfg.MaxBody
	if maxBody <= 0 {
		maxBody = api.MaxBody
	}
	s := &server{eng: eng, maxBody: maxBody, limit: newLimiter(cfg.QuotaRate, cfg.QuotaBurst)}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.submitJob)
	mux.HandleFunc("POST /v1/batches", s.submitBatch)
	mux.HandleFunc("GET /v1/jobs", s.listJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.getJob)
	mux.HandleFunc("POST /v1/graphs", s.ingestGraph)
	mux.HandleFunc("GET /v1/graphs", s.listGraphs)
	mux.HandleFunc("GET /v1/graphs/{ref...}", s.getGraph)
	mux.HandleFunc("GET /v1/topologies", s.topologies)
	mux.HandleFunc("GET /v1/bench/matrices", s.benchMatrices)
	mux.HandleFunc("GET /v1/stats", s.stats)
	mux.HandleFunc("GET /healthz", s.healthz)
	mux.HandleFunc("GET /readyz", s.readyz)
	if cfg.Pprof {
		// No method prefix: net/http/pprof's contract is method-agnostic
		// (go tool pprof POSTs to /debug/pprof/symbol).
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return api.Handler(mux)
}

// shed refuses a request with a Retry-After header: 429 for overload
// (quota, queue at capacity), 503 for a draining server. jobIDs are the
// jobs a batch queued before it was refused. Every shed is counted for
// /v1/stats.
func (s *server) shed(w http.ResponseWriter, status int, retryAfter time.Duration, err error, jobIDs ...string) {
	s.shedTotal.Add(1)
	api.SetRetryAfter(w, retryAfterSeconds(retryAfter))
	api.WriteError(w, status, err, jobIDs...)
}

// admit runs the submission-path admission checks shared by jobs and
// batches: a draining engine sheds with 503 (come back after the
// restart), an over-quota client with 429. Reports whether the request
// may proceed.
func (s *server) admit(w http.ResponseWriter, r *http.Request) bool {
	if s.eng.Draining() {
		s.shed(w, http.StatusServiceUnavailable, drainRetryAfter, engine.ErrDraining)
		return false
	}
	if ok, wait := s.limit.allow(clientKey(r), time.Now()); !ok {
		s.shed(w, http.StatusTooManyRequests, wait,
			fmt.Errorf("client %q over submission quota", clientKey(r)))
		return false
	}
	return true
}

// drainRetryAfter is the Retry-After handed out while draining: long
// enough for a restart to come back, short enough that clients re-home
// quickly.
const drainRetryAfter = 5 * time.Second

// queueFullRetryAfter is the Retry-After for a queue at capacity; the
// queue drains at job-pipeline speed, so a short backoff suffices.
const queueFullRetryAfter = 1 * time.Second

func (s *server) submitJob(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w, r) {
		return
	}
	body, err := api.ReadBody(w, r, s.maxBody)
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, fmt.Errorf("reading job spec: %w", err))
		return
	}
	spec, err := engine.DecodeSpec(body)
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, fmt.Errorf("decoding job spec: %w", err))
		return
	}
	job, err := s.eng.Submit(spec)
	switch {
	case err == nil:
		api.WriteJSON(w, http.StatusAccepted, job)
	case errors.Is(err, engine.ErrQueueFull):
		// Overload, not outage: the client should back off and retry,
		// which is exactly what 429 + Retry-After says.
		s.shed(w, http.StatusTooManyRequests, queueFullRetryAfter, err)
	case errors.Is(err, engine.ErrDraining):
		s.shed(w, http.StatusServiceUnavailable, drainRetryAfter, err)
	default:
		api.WriteError(w, http.StatusServiceUnavailable, err)
	}
}

func (s *server) submitBatch(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w, r) {
		return
	}
	var spec engine.BatchSpec
	if err := api.DecodeJSON(w, r, s.maxBody, &spec); err != nil {
		api.WriteError(w, http.StatusBadRequest, fmt.Errorf("decoding batch spec: %w", err))
		return
	}
	// Jobs enqueued before a failure keep running; their IDs go back so
	// the client can still track or wait on them. Capacity and drain
	// errors are transient and retryable: they shed with a Retry-After
	// (429 overload / 503 draining) rather than 400.
	switch ids, err := s.eng.SubmitBatch(spec); {
	case err == nil:
		api.WriteJSON(w, http.StatusAccepted, map[string]any{"job_ids": ids})
	case errors.Is(err, engine.ErrQueueFull):
		s.shed(w, http.StatusTooManyRequests, queueFullRetryAfter, err, ids...)
	case errors.Is(err, engine.ErrDraining):
		s.shed(w, http.StatusServiceUnavailable, drainRetryAfter, err, ids...)
	case errors.Is(err, engine.ErrClosed):
		api.WriteError(w, http.StatusServiceUnavailable, err, ids...)
	default:
		api.WriteError(w, http.StatusBadRequest, err, ids...)
	}
}

func (s *server) listJobs(w http.ResponseWriter, r *http.Request) {
	jobs := s.eng.Jobs()
	// The list is a summary view: re-serializing every retained
	// assignment (up to 16MB each) would bloat the response; fetch a
	// single job by ID for its full record.
	for i := range jobs {
		if jobs[i].Result != nil && jobs[i].Result.Assignment != nil {
			cp := *jobs[i].Result
			cp.Assignment = nil
			jobs[i].Result = &cp
		}
	}
	api.WriteJSON(w, http.StatusOK, map[string]any{"jobs": jobs})
}

// getJob returns one job's snapshot. With ?wait=1 it blocks until the
// job finishes — bounded by the request context, so a client that
// disconnects mid-job releases the handler goroutine immediately (the
// job itself keeps running) instead of leaking it until job completion.
func (s *server) getJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if v := r.URL.Query().Get("wait"); v == "1" || v == "true" {
		job, err := s.eng.WaitCtx(r.Context(), id)
		switch {
		case err == nil:
			api.WriteJSON(w, http.StatusOK, job)
		case errors.Is(err, engine.ErrDraining):
			// A draining server releases its waiters instead of holding
			// them across the shutdown: retry after the restart, when the
			// job will have been recovered from the ledger.
			s.shed(w, http.StatusServiceUnavailable, drainRetryAfter, err)
		case r.Context().Err() != nil:
			// Client gone; nothing useful can be written.
		default:
			// WaitCtx's one other error is an ID it does not know.
			api.WriteError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		}
		return
	}
	job, ok := s.eng.Get(id)
	if !ok {
		api.WriteError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	api.WriteJSON(w, http.StatusOK, job)
}

// ingestRequest is the JSON form of POST /v1/graphs: a server-side
// path ingest with optional loader tuning.
type ingestRequest struct {
	Path             string `json:"path"`
	Format           string `json:"format,omitempty"`
	Weights          string `json:"weights,omitempty"`
	LargestComponent bool   `json:"largest_component,omitempty"`
}

// ingestGraph handles POST /v1/graphs. A JSON body ({"path": ...})
// ingests a file the server can see; any other content type is treated
// as the graph bytes themselves (the upload path), with loader options
// in query parameters: ?name=, ?format=, ?weights=, ?largest_component=1.
func (s *server) ingestGraph(w http.ResponseWriter, r *http.Request) {
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/json") {
		var req ingestRequest
		if err := api.DecodeJSON(w, r, s.maxBody, &req); err != nil {
			api.WriteError(w, http.StatusBadRequest, fmt.Errorf("decoding ingest request: %w", err))
			return
		}
		if req.Path == "" {
			api.WriteError(w, http.StatusBadRequest, fmt.Errorf("ingest request needs a path (or POST the graph bytes directly)"))
			return
		}
		opt, err := ingestOptions(req.Format, req.Weights, req.LargestComponent)
		if err != nil {
			api.WriteError(w, http.StatusBadRequest, err)
			return
		}
		info, err := s.eng.IngestPath(req.Path, opt)
		if err != nil {
			api.WriteError(w, http.StatusBadRequest, err)
			return
		}
		api.WriteJSON(w, http.StatusCreated, map[string]any{"graph": info})
		return
	}

	q := r.URL.Query()
	opt, err := ingestOptions(q.Get("format"), q.Get("weights"), q.Get("largest_component") == "1" || q.Get("largest_component") == "true")
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, err)
		return
	}
	// Stream the upload to a spool file instead of buffering it in
	// memory: the loader parses the spool in its own streaming passes,
	// so the server's peak memory per upload is the resident CSR, not
	// CSR + raw bytes. The spool only lives for the ingest.
	spool, err := os.CreateTemp("", "mapd-upload-*")
	if err != nil {
		api.WriteError(w, http.StatusInternalServerError, fmt.Errorf("creating upload spool: %w", err))
		return
	}
	defer os.Remove(spool.Name())
	defer spool.Close()
	n, err := io.Copy(spool, http.MaxBytesReader(w, r.Body, s.maxBody))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			api.WriteError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("upload exceeds the %d-byte limit (raise with -max-upload)", tooBig.Limit))
			return
		}
		api.WriteError(w, http.StatusBadRequest, fmt.Errorf("reading upload: %w", err))
		return
	}
	if n == 0 {
		api.WriteError(w, http.StatusBadRequest, fmt.Errorf("empty upload"))
		return
	}
	info, dup, err := s.eng.IngestSpool(q.Get("name"), spool.Name(), opt)
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, err)
		return
	}
	status := http.StatusCreated
	if dup {
		status = http.StatusOK // already registered; nothing was created
	}
	api.WriteJSON(w, status, map[string]any{"graph": info, "deduplicated": dup})
}

func ingestOptions(format, weights string, lcc bool) (ingest.Options, error) {
	f, err := ingest.ParseFormat(format)
	if err != nil {
		return ingest.Options{}, err
	}
	wm, err := ingest.ParseWeights(weights)
	if err != nil {
		return ingest.Options{}, err
	}
	return ingest.Options{Format: f, Weights: wm, LargestComponent: lcc}, nil
}

func (s *server) listGraphs(w http.ResponseWriter, r *http.Request) {
	api.WriteJSON(w, http.StatusOK, map[string]any{"graphs": s.eng.Graphs()})
}

func (s *server) getGraph(w http.ResponseWriter, r *http.Request) {
	ref := r.PathValue("ref")
	info, ok := s.eng.GraphInfo(ref)
	if !ok {
		api.WriteError(w, http.StatusNotFound, fmt.Errorf("unknown graph ref %q", ref))
		return
	}
	api.WriteJSON(w, http.StatusOK, map[string]any{"graph": info})
}

func (s *server) topologies(w http.ResponseWriter, r *http.Request) {
	hits, misses := s.eng.Cache().Stats()
	api.WriteJSON(w, http.StatusOK, map[string]any{
		"topologies": s.eng.Cache().Snapshot(),
		"hits":       hits,
		"misses":     misses,
	})
}

// benchMatrices serves the canonical benchmark matrices, so clients
// drive the same scenario grid that cmd/mapbench and CI run: each
// matrix names networks, topologies and cases that expand into engine
// batches.
func (s *server) benchMatrices(w http.ResponseWriter, r *http.Request) {
	api.WriteJSON(w, http.StatusOK, map[string]any{"matrices": bench.Matrices()})
}

// stats reports the runtime and pool statistics an operator watches
// under load: goroutine count, heap footprint, worker-pool and queue
// state, jobs served, cumulative per-stage seconds (the engine's
// partition/map/enhance split — how much of the fleet's time goes to
// the base stage vs TIMER), artifact-cache hit/miss/in-flight counters
// (inside the engine block), and topology-cache effectiveness.
func (s *server) stats(w http.ResponseWriter, r *http.Request) {
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	hits, misses := s.eng.Cache().Stats()
	payload := map[string]any{
		"engine":            s.eng.Stats(),
		"goroutines":        runtime.NumGoroutine(),
		"heap_alloc_bytes":  mem.HeapAlloc,
		"total_alloc_bytes": mem.TotalAlloc,
		"num_gc":            mem.NumGC,
		"shed_total":        s.shedTotal.Load(),
		"topology_cache": map[string]any{
			"entries": len(s.eng.Cache().Snapshot()),
			"hits":    hits,
			"misses":  misses,
		},
	}
	if adm := s.limit.snapshot(); adm != nil {
		payload["admission"] = adm
	}
	api.WriteJSON(w, http.StatusOK, payload)
}

func (s *server) healthz(w http.ResponseWriter, r *http.Request) {
	api.WriteJSON(w, http.StatusOK, map[string]any{
		"status":      "ok",
		"workers":     s.eng.Workers(),
		"queue_depth": s.eng.QueueDepth(),
		"draining":    s.eng.Draining(),
	})
}

// readyz is the readiness probe routers and load balancers de-pool on:
// 200 while the replica accepts work, 503 + Retry-After once it begins
// draining — before the listener goes away, so clients see an orderly
// "come back later" instead of refused connections. Liveness stays on
// /healthz, which keeps answering 200 throughout the drain.
func (s *server) readyz(w http.ResponseWriter, r *http.Request) {
	if s.eng.Draining() {
		s.shed(w, http.StatusServiceUnavailable, drainRetryAfter, engine.ErrDraining)
		return
	}
	api.WriteJSON(w, http.StatusOK, map[string]any{
		"status":      "ready",
		"workers":     s.eng.Workers(),
		"queue_depth": s.eng.QueueDepth(),
	})
}
