// Package mapclient is a resilient Go client for the mapd HTTP API
// (and for maprouter, which serves mapd's job routes). Every call runs
// under a per-attempt deadline and a bounded retry loop: exponential
// backoff with full jitter for transport errors and 5xx responses, the
// server's own Retry-After honored on 429/503, and non-retryable 4xx
// surfaced immediately. Retrying a submission is safe because the
// engine dedups by canonical spec hash (engine.SpecHash): a resubmitted
// spec is either served from the ledger or recomputed to byte-identical
// results, never run twice with different outcomes.
package mapclient

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/engine"
)

// Config tunes a Client. The zero value of every field is replaced by
// a sensible default in New.
type Config struct {
	// ClientID is sent as X-Client-ID so the server's per-client quota
	// and the router's stats attribute requests to this client.
	ClientID string
	// AttemptTimeout bounds each individual HTTP attempt (default 60s —
	// long enough for a parked ?wait=1 poll to be useful).
	AttemptTimeout time.Duration
	// MaxAttempts bounds the retry loop per call, first try included
	// (default 6).
	MaxAttempts int
	// BaseBackoff and MaxBackoff shape the exponential backoff: attempt
	// n sleeps a uniformly random duration in [0, min(MaxBackoff,
	// BaseBackoff·2ⁿ)] — "full jitter", so a cohort of clients shed
	// together does not return together. Defaults 100ms and 5s.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration

	// httpClient overrides the transport (this package's tests inject
	// failing round trips). Its Timeout is ignored; AttemptTimeout
	// governs.
	httpClient *http.Client
}

// maxRetryAfter caps how long an honored Retry-After header can put
// the client to sleep, so a misconfigured server cannot park callers
// for minutes.
const maxRetryAfter = 15 * time.Second

func (c Config) withDefaults() Config {
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = 60 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 6
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 100 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 5 * time.Second
	}
	if c.httpClient == nil {
		c.httpClient = &http.Client{}
	}
	return c
}

// Client talks to one mapd or maprouter base URL with retries. Safe
// for concurrent use.
type Client struct {
	base    string
	cfg     Config
	retries atomic.Int64
}

// New builds a client for the given base URL (e.g.
// "http://127.0.0.1:8080"), applying defaults to cfg.
func New(baseURL string, cfg Config) *Client {
	return &Client{base: baseURL, cfg: cfg.withDefaults()}
}

// Retries reports how many retry attempts (beyond each call's first
// try) this client has performed — the fleet's visibility into how
// hard the transport is working.
func (c *Client) Retries() int64 { return c.retries.Load() }

// APIError is a non-2xx response from the server, carrying the decoded
// error message and any Retry-After the server advertised.
type APIError struct {
	Status     int
	Message    string
	RetryAfter time.Duration
}

// Error renders the status code and server message.
func (e *APIError) Error() string {
	return fmt.Sprintf("mapclient: server returned %d: %s", e.Status, e.Message)
}

// Temporary reports whether the error is worth retrying: overload and
// drain shedding (429, 503), and any other 5xx. Remaining 4xx are the
// caller's bug, not the server's weather.
func (e *APIError) Temporary() bool {
	return e.Status == http.StatusTooManyRequests || e.Status >= 500
}

// do runs one API call through the retry loop: transport errors and
// temporary APIErrors are retried with backoff (honoring Retry-After
// when the server set one), permanent errors and context cancellation
// return immediately. A 2xx response is decoded into out.
func (c *Client) do(ctx context.Context, method, path string, body []byte, out any) error {
	var lastErr error
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
			if err := sleepCtx(ctx, c.backoff(attempt, lastErr)); err != nil {
				return err
			}
		}
		err := c.attempt(ctx, method, path, body, out)
		if err == nil {
			return nil
		}
		lastErr = err
		if apiErr, ok := err.(*APIError); ok && !apiErr.Temporary() {
			return err
		}
		if ctx.Err() != nil {
			return err
		}
		// Transport errors (connection refused, reset, timeout) and
		// temporary API errors fall through to the next attempt.
	}
	return fmt.Errorf("mapclient: %s %s: giving up after %d attempts: %w",
		method, path, c.cfg.MaxAttempts, lastErr)
}

// backoff computes the sleep before the given (1-based retry) attempt:
// the server's Retry-After when the previous error advertised one,
// otherwise full-jitter exponential backoff.
func (c *Client) backoff(attempt int, lastErr error) time.Duration {
	if apiErr, ok := lastErr.(*APIError); ok && apiErr.RetryAfter > 0 {
		return min(apiErr.RetryAfter, maxRetryAfter)
	}
	// Double up to MaxBackoff by adding at most the headroom left below
	// it: shifting first would overflow int64 on a long retry run.
	ceil := min(c.cfg.BaseBackoff, c.cfg.MaxBackoff)
	for n := 1; n < attempt && ceil < c.cfg.MaxBackoff; n++ {
		ceil += min(ceil, c.cfg.MaxBackoff-ceil)
	}
	return time.Duration(rand.Int64N(int64(ceil) + 1))
}

// attempt performs a single HTTP round trip under the per-attempt
// deadline.
func (c *Client) attempt(ctx context.Context, method, path string, body []byte, out any) error {
	actx, cancel := context.WithTimeout(ctx, c.cfg.AttemptTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.cfg.ClientID != "" {
		req.Header.Set("X-Client-ID", c.cfg.ClientID)
	}
	resp, err := c.cfg.httpClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return decodeAPIError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// decodeAPIError turns a non-2xx response into an *APIError, reading
// the server's api.ErrorBody and Retry-After header.
func decodeAPIError(resp *http.Response) *APIError {
	apiErr := &APIError{Status: resp.StatusCode}
	var body api.ErrorBody
	if json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&body) == nil {
		apiErr.Message = body.Error
	}
	if apiErr.Message == "" {
		apiErr.Message = http.StatusText(resp.StatusCode)
	}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
		apiErr.RetryAfter = time.Duration(secs) * time.Second
	}
	return apiErr
}

// sleepCtx sleeps for d or until the context is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// SubmitJob submits a job spec and returns the accepted job snapshot
// (status queued, or done when the server dedup-served it).
func (c *Client) SubmitJob(ctx context.Context, spec engine.JobSpec) (engine.Job, error) {
	body, err := engine.MarshalSpec(spec)
	if err != nil {
		return engine.Job{}, err
	}
	return c.SubmitJSON(ctx, body)
}

// SubmitJSON submits an already encoded job spec, sending the bytes
// unchanged (the router forwards its clients' request bodies this
// way), and returns the accepted job snapshot like SubmitJob. The
// server decodes the spec; one it refuses comes back as a 400
// *APIError.
func (c *Client) SubmitJSON(ctx context.Context, spec []byte) (engine.Job, error) {
	var job engine.Job
	err := c.do(ctx, http.MethodPost, "/v1/jobs", spec, &job)
	return job, err
}

// GetJob fetches a job snapshot without waiting.
func (c *Client) GetJob(ctx context.Context, id string) (engine.Job, error) {
	var job engine.Job
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &job)
	return job, err
}

// WaitJob long-polls the job until it reaches a terminal state (done
// or failed) or ctx expires. An interrupted job — the server drained
// under it — is not terminal from the client's side: a durable server
// requeues it on restart under the same ID, so WaitJob keeps polling.
func (c *Client) WaitJob(ctx context.Context, id string) (engine.Job, error) {
	for {
		var job engine.Job
		if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"?wait=1", nil, &job); err != nil {
			return engine.Job{}, err
		}
		switch job.Status {
		case engine.StatusDone, engine.StatusFailed:
			return job, nil
		}
		// Queued, running, or interrupted: park again after a short
		// jittered pause so a restarting server is not hammered.
		if err := sleepCtx(ctx, time.Duration(rand.Int64N(int64(200*time.Millisecond)))); err != nil {
			return job, err
		}
	}
}

// maxBatchJobs caps the jobs RunBatch expands a batch into. It is the
// router's default retention window (fleet.Config.RetainJobs), past
// which a router forgets finished jobs, so a batch's first jobs could
// be gone before they are collected.
const maxBatchJobs = 4096

// batchWorkers is how many of a batch's jobs RunBatch keeps in flight.
const batchWorkers = 8

// RunBatch expands the batch client-side (engine.ExpandBatch), refusing
// a batch of more than 4096 jobs before sending anything, and runs its
// specs on at most 8 workers: each submits a spec through the retry
// loop and waits for that job before taking the next. It returns final
// snapshots in fan-out order. The first error aborts outstanding work
// and is returned.
func (c *Client) RunBatch(ctx context.Context, b engine.BatchSpec) ([]engine.Job, error) {
	specs, err := engine.ExpandBatch(b, maxBatchJobs)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	jobs := make([]engine.Job, len(specs))
	todo := make(chan int, len(specs))
	for i := range specs {
		todo <- i
	}
	close(todo)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for range min(batchWorkers, len(specs)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range todo {
				job, jerr := c.SubmitJob(ctx, specs[i])
				if jerr == nil && job.Status != engine.StatusDone && job.Status != engine.StatusFailed {
					job, jerr = c.WaitJob(ctx, job.ID)
				}
				if jerr != nil {
					mu.Lock()
					if err == nil {
						err = fmt.Errorf("mapclient: batch spec %d: %w", i, jerr)
					}
					mu.Unlock()
					cancel()
					return
				}
				jobs[i] = job
			}
		}()
	}
	wg.Wait()
	return jobs, err
}
