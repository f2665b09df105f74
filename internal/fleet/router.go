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
	// ClientID is the X-Client-ID the router presents upstream
	// (default "maprouter").
	ClientID string
	// RetainJobs bounds the routed-job table; the oldest entries are
	// forgotten beyond it (default 4096).
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
	if c.ClientID == "" {
		c.ClientID = "maprouter"
	}
	if c.RetainJobs <= 0 {
		c.RetainJobs = 4096
	}
	return c
}

// routedJob is the router's record of one job it placed: the request
// bytes it resubmits verbatim on failover, the routing key, and the
// current placement (which replica, under which replica-local ID).
type routedJob struct {
	id   string // router-scoped "fl-NNNNNN" ID
	body []byte // spec JSON: the client's request body, or a batch job's encoding
	key  string // rendezvous routing key (spec hash)

	mu       sync.Mutex
	rep      *Replica
	remoteID string
}

// placement returns the job's current replica and remote ID.
func (rj *routedJob) placement() (*Replica, string) {
	rj.mu.Lock()
	defer rj.mu.Unlock()
	return rj.rep, rj.remoteID
}

// Router is the fleet's routing proxy: an http.Handler speaking the
// mapd job API, placing every job on a replica by rendezvous hashing
// of its canonical spec hash and moving it when that replica dies.
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

// Requeues counts jobs resubmitted to another replica after their
// placement died mid-flight.
func (rt *Router) Requeues() int64 { return rt.requeues.Load() }

// HomeOf returns the base URL of the replica that rendezvous hashing
// ranks first for key — the replica a job with that routing key is
// placed on while the whole fleet is healthy. Chaos harnesses use it
// to pick a victim that is guaranteed to hold work.
func (rt *Router) HomeOf(key string) string {
	ranked := rankReplicas(rt.replicas, key)
	if len(ranked) == 0 {
		return ""
	}
	return ranked[0].Name
}

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

// register files a placed job under a fresh router ID, evicting the
// oldest record past the retention bound.
func (rt *Router) register(body []byte, key string, rep *Replica, remote engine.Job) *routedJob {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.seq++
	rj := &routedJob{
		id: fmt.Sprintf("fl-%06d", rt.seq), body: body, key: key,
		rep: rep, remoteID: remote.ID,
	}
	rt.jobs[rj.id] = rj
	rt.order = append(rt.order, rj.id)
	for len(rt.order) > rt.cfg.RetainJobs {
		delete(rt.jobs, rt.order[0])
		rt.order = rt.order[1:]
	}
	return rj
}

// requeue moves the job off dead: resubmits its request bytes to the
// next usable replica in rendezvous order. Only the caller who saw the
// current placement fail performs the move; concurrent waiters that
// lost the race adopt the new placement instead of resubmitting again.
// Resubmission is safe — the spec-hash dedup and the deterministic
// pipeline make the moved job's result byte-identical.
func (rt *Router) requeue(ctx context.Context, rj *routedJob, dead *Replica, deadRemoteID string) error {
	// The placement lock is held across the resubmission on purpose:
	// concurrent waiters of this one job serialize here, so exactly one
	// performs the move and the rest adopt its result.
	rj.mu.Lock()
	defer rj.mu.Unlock()
	if rj.rep != dead || rj.remoteID != deadRemoteID {
		return nil // another waiter already moved it
	}
	rep, job, err := rt.place(ctx, rj.body, rj.key, dead)
	if err != nil {
		return err
	}
	rj.rep, rj.remoteID = rep, job.ID
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
