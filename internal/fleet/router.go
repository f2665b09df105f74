package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/mapclient"
)

// Config configures a Router. Zero-valued fields take defaults.
type Config struct {
	// Replicas are the mapd base URLs the router fans out over (at
	// least one).
	Replicas []string
	// ProbeInterval is how often each replica's /readyz is polled
	// (default 500ms); ProbeTimeout bounds one probe (default 2s).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// BreakerThreshold consecutive failures open a replica's breaker
	// (default 3); BreakerCooldown later one trial is admitted
	// (default 2s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// UpstreamTimeout bounds each upstream HTTP attempt (default 60s,
	// long enough for parked ?wait=1 proxying to be useful).
	UpstreamTimeout time.Duration
	// RetainJobs bounds the routed-job table (default 4096). Beyond it
	// the router forgets its oldest jobs once they have finished,
	// whether or not a client read them; a job its replica still queues
	// or runs is kept however many follow it.
	RetainJobs int
}

func (c Config) withDefaults() Config {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.UpstreamTimeout <= 0 {
		c.UpstreamTimeout = 60 * time.Second
	}
	if c.RetainJobs <= 0 {
		c.RetainJobs = 4096
	}
	return c
}

// routedJob is the router's record of one job it placed: the request
// bytes it resubmits verbatim on failover, the routing key, and the
// current placement (which replica, under which replica-local ID).
// Once the router has relayed the job as done or failed, the record
// keeps that snapshot instead of the request bytes: a final job is
// never placed again, and every later read is answered from it.
type routedJob struct {
	id  string // router-scoped "fl-NNNNNN" ID
	key string // rendezvous routing key (spec hash)

	mu       sync.Mutex
	body     []byte // spec JSON: the client's request body, or a batch job's encoding; nil once final
	rep      *Replica
	remoteID string
	// final is the relayed done or failed snapshot, under the router ID.
	// It is set under mu; trimLocked reads it without mu, so eviction
	// never waits on a placement a failover holds.
	final atomic.Pointer[engine.Job]
}

// state returns the job's final snapshot, or nil and its current
// placement (replica and remote ID).
func (rj *routedJob) state() (*engine.Job, *Replica, string) {
	rj.mu.Lock()
	defer rj.mu.Unlock()
	return rj.final.Load(), rj.rep, rj.remoteID
}

// settle keeps job, under the router ID, as the final snapshot if it is
// done or failed, and drops the request bytes. An interrupted job is
// not final: its replica requeues it on restart. The first final
// snapshot stays, so every read answers the same bytes.
func (rj *routedJob) settle(job engine.Job) {
	rj.mu.Lock()
	defer rj.mu.Unlock()
	rj.settleLocked(job)
}

// settleLocked is settle for a caller that holds rj.mu.
func (rj *routedJob) settleLocked(job engine.Job) {
	if rj.final.Load() != nil || (job.Status != engine.StatusDone && job.Status != engine.StatusFailed) {
		return
	}
	job.ID = rj.id
	rj.final.Store(&job)
	rj.body = nil
}

// Router is the fleet's routing proxy: its Handler serves mapd's job
// routes, placing every job on a replica by rendezvous hashing of its
// canonical spec hash and moving it when that replica dies.
type Router struct {
	cfg      Config
	replicas []*Replica
	cancel   context.CancelFunc

	mu    sync.Mutex
	jobs  map[string]*routedJob
	order []string
	seq   int64

	failovers atomic.Int64
	requeues  atomic.Int64
}

// errNoReplica is returned when no replica is ready with a closed (or
// half-open) breaker; clients see it as 503 + Retry-After.
var errNoReplica = errors.New("fleet: no usable replica")

// NewRouter builds the router and starts a health prober per replica.
// Close stops the probers.
func NewRouter(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("fleet: router needs at least one replica")
	}
	ctx, cancel := context.WithCancel(context.Background())
	rt := &Router{cfg: cfg, cancel: cancel, jobs: make(map[string]*routedJob)}
	for _, url := range cfg.Replicas {
		rep := newReplica(url, cfg)
		rt.replicas = append(rt.replicas, rep)
		go rep.healthLoop(ctx, cfg.ProbeInterval, cfg.ProbeTimeout)
	}
	return rt, nil
}

// Close stops the health probers. In-flight proxied requests finish on
// their own contexts.
func (rt *Router) Close() { rt.cancel() }

// Failovers counts jobs that landed (or re-landed) anywhere but their
// first rendezvous choice — each one is a replica the router routed
// around.
func (rt *Router) Failovers() int64 { return rt.failovers.Load() }

// routingKey derives the rendezvous key for a spec: its canonical spec
// hash when it has one (the common case — everything arriving as JSON
// does), otherwise the fingerprint of the raw body, so routing stays
// deterministic even for specs the engine cannot dedup.
func routingKey(spec engine.JobSpec, body []byte) string {
	if h, ok := engine.SpecHash(spec); ok {
		return h
	}
	return graph.FingerprintBytes(body).String()
}

// place submits the spec JSON, byte for byte, to the best usable
// replica in rendezvous order, skipping avoid (the replica that just
// failed this job, whose breaker may not have noticed yet). Overloaded
// or draining replicas
// (429/503) are spilled past without a breaker penalty; transport
// errors and 5xx charge the breaker and move on. Landing anywhere but
// the first usable choice counts as a failover.
func (rt *Router) place(ctx context.Context, body []byte, key string, avoid *Replica) (*Replica, engine.Job, error) {
	ranked := rankReplicas(rt.replicas, key)
	first := true
	var lastErr error = errNoReplica
	for _, rep := range ranked {
		if rep == avoid || !rep.usable() {
			continue
		}
		job, err := rep.client.SubmitJSON(ctx, body)
		if err == nil {
			rep.breaker.success()
			rep.submits.Add(1)
			if !first || avoid != nil {
				rt.failovers.Add(1)
			}
			return rep, job, nil
		}
		lastErr = err
		var apiErr *mapclient.APIError
		if errors.As(err, &apiErr) {
			switch {
			case apiErr.Status == http.StatusTooManyRequests || apiErr.Status == http.StatusServiceUnavailable:
				// Healthy but shedding: spill to the next replica.
				first = false
				continue
			case apiErr.Status < 500:
				// The client's own bad request; no replica will differ.
				return nil, engine.Job{}, err
			}
		}
		rep.breaker.failure()
		rep.failures.Add(1)
		first = false
	}
	return nil, engine.Job{}, lastErr
}

// register files a placed job under a fresh router ID. A placement
// answered with a final snapshot (a resubmission the replica's ledger
// served) is filed final. Past the retention bound, register forgets
// the oldest records it has relayed as final and asks the replicas of
// the oldest others, at most two a call, whether they are finished: a
// job still queued or running moves to the back of the order, and the
// rest are forgotten, read or not. So the table holds RetainJobs
// records plus the unfinished jobs the replicas' queues bound, and two
// checks against the one record added let it drain back to the bound.
func (rt *Router) register(body []byte, key string, rep *Replica, remote engine.Job) *routedJob {
	rt.mu.Lock()
	rt.seq++
	rj := &routedJob{
		id: fmt.Sprintf("fl-%06d", rt.seq), body: body, key: key,
		rep: rep, remoteID: remote.ID,
	}
	rj.settle(remote)
	rt.jobs[rj.id] = rj
	rt.order = append(rt.order, rj.id)
	for checks := 0; checks < 2; checks++ {
		old := rt.trimLocked()
		if old == nil {
			break
		}
		rt.mu.Unlock()
		live := rt.unfinished(old)
		rt.mu.Lock()
		if live {
			rt.order = append(rt.order, old.id)
		} else {
			delete(rt.jobs, old.id)
		}
	}
	rt.mu.Unlock()
	return rj
}

// trimLocked forgets final records from the front of the order while
// the table is past the retention bound. It returns the first live
// record it meets, taken off the order but still reachable by ID, for
// the caller to check with its replica. Caller holds rt.mu.
func (rt *Router) trimLocked() *routedJob {
	for len(rt.order) > rt.cfg.RetainJobs {
		rj := rt.jobs[rt.order[0]]
		rt.order = rt.order[1:]
		if rj.final.Load() == nil {
			return rj
		}
		delete(rt.jobs, rj.id)
	}
	return nil
}

// unfinished asks rj's replica, within ProbeTimeout, whether the job is
// still queued, running or interrupted there. A job relayed as final, a
// replica the prober finds down, and one that has forgotten the job or
// does not answer all count as finished.
func (rt *Router) unfinished(rj *routedJob) bool {
	final, rep, remoteID := rj.state()
	if final != nil || !(rep.ready.Load() || rep.draining.Load()) {
		return false
	}
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.ProbeTimeout)
	defer cancel()
	job, err := rep.client.GetJob(ctx, remoteID)
	return err == nil && job.Status != engine.StatusDone && job.Status != engine.StatusFailed
}

// requeue moves the job off dead: resubmits its request bytes to the
// next usable replica in rendezvous order. Only the caller who saw the
// current placement fail performs the move; concurrent waiters that
// lost the race adopt the new placement instead of resubmitting again,
// and a job that has become final is not moved at all. Resubmission is
// safe — the spec-hash dedup and the deterministic pipeline make the
// moved job's result byte-identical.
func (rt *Router) requeue(ctx context.Context, rj *routedJob, dead *Replica, deadRemoteID string) error {
	// The placement lock is held across the resubmission on purpose:
	// concurrent waiters of this one job serialize here, so exactly one
	// performs the move and the rest adopt its result.
	rj.mu.Lock()
	defer rj.mu.Unlock()
	if rj.final.Load() != nil || rj.rep != dead || rj.remoteID != deadRemoteID {
		return nil // final, or another waiter already moved it
	}
	rep, job, err := rt.place(ctx, rj.body, rj.key, dead)
	if err != nil {
		return err
	}
	rj.rep, rj.remoteID = rep, job.ID
	rj.settleLocked(job)
	rt.requeues.Add(1)
	dead.failovers.Add(1)
	return nil
}

// retryable reports whether an upstream error means the replica is in
// trouble (transport failure, 5xx, or an exhausted retry loop) rather
// than the request being wrong.
func retryable(err error) bool {
	var apiErr *mapclient.APIError
	if errors.As(err, &apiErr) {
		return apiErr.Temporary()
	}
	return true // transport-level: connection refused/reset/timeout
}

// notFound reports whether the upstream answered 404 — after a
// replica restart without (or ahead of) its ledger replay, the job is
// simply gone there and must be requeued elsewhere.
func notFound(err error) bool {
	var apiErr *mapclient.APIError
	return errors.As(err, &apiErr) && apiErr.Status == http.StatusNotFound
}
