package mapclient

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
)

// fastCfg keeps retry tests quick: tight timeouts, small backoff.
func fastCfg() Config {
	return Config{
		AttemptTimeout: 2 * time.Second,
		MaxAttempts:    4,
		BaseBackoff:    time.Millisecond,
		MaxBackoff:     5 * time.Millisecond,
	}
}

func TestRetriesTransientThenSucceeds(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, `{"error":"transient"}`, http.StatusBadGateway)
			return
		}
		json.NewEncoder(w).Encode(engine.Job{ID: "job-000001", Status: engine.StatusQueued})
	}))
	defer srv.Close()

	c := New(srv.URL, fastCfg())
	job, err := c.SubmitJob(context.Background(), engine.JobSpec{Topology: "grid:4x4"})
	if err != nil {
		t.Fatal(err)
	}
	if job.ID != "job-000001" {
		t.Errorf("job ID = %q", job.ID)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d calls, want 3 (two 502s then success)", got)
	}
	if got := c.Retries(); got != 2 {
		t.Errorf("client counted %d retries, want 2", got)
	}
}

// roundTripFunc adapts a function to http.RoundTripper, so a test can
// fail round trips before they reach the server.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

func TestDroppedConnectionsRetriedTransparently(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		json.NewEncoder(w).Encode(engine.Job{ID: "job-000001", Status: engine.StatusQueued})
	}))
	defer srv.Close()

	// The first two round trips die the way a connection reset by a
	// dying replica does: an error before any response.
	var trips atomic.Int64
	cfg := fastCfg()
	cfg.HTTPClient = &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		if trips.Add(1) <= 2 {
			return nil, errors.New("connection reset by peer")
		}
		return srv.Client().Transport.RoundTrip(r)
	})}
	c := New(srv.URL, cfg)
	job, err := c.SubmitJob(context.Background(), engine.JobSpec{Topology: "grid:4x4"})
	if err != nil {
		t.Fatal(err)
	}
	if job.ID != "job-000001" {
		t.Errorf("job ID = %q", job.ID)
	}
	// The two dropped attempts never reached the server.
	if got := calls.Load(); got != 1 {
		t.Errorf("server saw %d calls, want 1", got)
	}
	if got := c.Retries(); got != 2 {
		t.Errorf("client counted %d retries, want 2", got)
	}
}

func TestAttemptTimeoutFailsAttemptNotCall(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			// A stuck replica: hold the request until the client gives up
			// on this attempt.
			<-r.Context().Done()
			return
		}
		json.NewEncoder(w).Encode(engine.Job{ID: "job-000001", Status: engine.StatusQueued})
	}))
	defer srv.Close()

	cfg := fastCfg()
	cfg.AttemptTimeout = 100 * time.Millisecond
	c := New(srv.URL, cfg)
	start := time.Now()
	if _, err := c.GetJob(context.Background(), "job-000001"); err != nil {
		t.Fatalf("stuck first attempt failed the call: %v", err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("call took %v, want the stuck attempt cut at ~100ms", took)
	}
	if got := c.Retries(); got != 1 {
		t.Errorf("client counted %d retries, want 1", got)
	}
}

func TestBackoffStaysInRange(t *testing.T) {
	// Default BaseBackoff and MaxBackoff: doubling 100ms overflows int64
	// at the 38th retry unless it stops at the cap.
	c := New("http://127.0.0.1:1", Config{MaxAttempts: 100})
	for attempt := 1; attempt < c.cfg.MaxAttempts; attempt++ {
		if d := c.backoff(attempt, nil); d < 0 || d > c.cfg.MaxBackoff {
			t.Fatalf("backoff before attempt %d = %v, want within [0, %v]", attempt, d, c.cfg.MaxBackoff)
		}
	}
}

func TestNeverRetries4xx(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"bad spec"}`, http.StatusBadRequest)
	}))
	defer srv.Close()

	c := New(srv.URL, fastCfg())
	_, err := c.SubmitJob(context.Background(), engine.JobSpec{})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("err = %v, want 400 APIError", err)
	}
	if apiErr.Message != "bad spec" {
		t.Errorf("message = %q, want server's error body", apiErr.Message)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("server saw %d calls, want exactly 1 — 4xx must never retry", got)
	}
}

func TestHonorsRetryAfterOn429(t *testing.T) {
	var calls atomic.Int64
	var gaps []time.Duration
	var last time.Time
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		now := time.Now()
		if !last.IsZero() {
			gaps = append(gaps, now.Sub(last))
		}
		last = now
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"over quota"}`, http.StatusTooManyRequests)
			return
		}
		json.NewEncoder(w).Encode(engine.Job{ID: "job-000002", Status: engine.StatusQueued})
	}))
	defer srv.Close()

	c := New(srv.URL, fastCfg())
	if _, err := c.SubmitJob(context.Background(), engine.JobSpec{Topology: "grid:4x4"}); err != nil {
		t.Fatal(err)
	}
	if len(gaps) != 1 {
		t.Fatalf("server saw %d retries, want 1", len(gaps))
	}
	// The default backoff ceiling is 5ms here; a ≥1s gap proves the
	// advertised Retry-After governed the sleep instead.
	if gaps[0] < 900*time.Millisecond {
		t.Errorf("retry came back after %v, want ≥ ~1s per Retry-After", gaps[0])
	}
}

func TestGivesUpAfterMaxAttempts(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"down"}`, http.StatusInternalServerError)
	}))
	defer srv.Close()

	c := New(srv.URL, fastCfg())
	_, err := c.GetJob(context.Background(), "job-000001")
	if err == nil {
		t.Fatal("call succeeded against a permanently-500 server")
	}
	if got := calls.Load(); got != 4 {
		t.Errorf("server saw %d calls, want MaxAttempts=4", got)
	}
}

func TestRetriesConnectionErrors(t *testing.T) {
	// A server that is stopped before the call: every attempt is a
	// connection error, all retryable, then the loop gives up.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	url := srv.URL
	srv.Close()

	c := New(url, fastCfg())
	_, err := c.GetJob(context.Background(), "job-000001")
	if err == nil {
		t.Fatal("call against a dead server succeeded")
	}
	if got := c.Retries(); got != 3 {
		t.Errorf("client counted %d retries, want 3 (4 attempts)", got)
	}
}

func TestContextCancelAbortsRetryLoop(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"down"}`, http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	cfg := fastCfg()
	cfg.BaseBackoff = time.Hour // cancellation must cut the sleep short
	cfg.MaxBackoff = time.Hour
	c := New(srv.URL, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.GetJob(ctx, "job-000001")
	if err == nil {
		t.Fatal("call succeeded")
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("cancelled call took %v, want prompt abort", took)
	}
}

func TestWaitJobPollsUntilTerminal(t *testing.T) {
	var polls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		status := engine.StatusRunning
		if polls.Add(1) >= 3 {
			status = engine.StatusDone
		}
		json.NewEncoder(w).Encode(engine.Job{ID: "job-000001", Status: status, Result: &engine.JobResult{Topology: "grid:4x4"}})
	}))
	defer srv.Close()

	c := New(srv.URL, fastCfg())
	job, err := c.WaitJob(context.Background(), "job-000001")
	if err != nil {
		t.Fatal(err)
	}
	if job.Status != engine.StatusDone {
		t.Errorf("status = %s", job.Status)
	}
	if got := polls.Load(); got < 3 {
		t.Errorf("server saw %d polls, want ≥ 3", got)
	}
}
