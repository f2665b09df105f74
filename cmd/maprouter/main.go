// Command maprouter fronts a fleet of mapd replicas with one endpoint
// serving mapd's job routes: jobs are routed by rendezvous hashing on
// their canonical spec hash (so a spec keeps hitting the replica whose
// artifact cache and job ledger are warm), replicas are health-probed
// and circuit-broken, and a job whose replica dies mid-flight is
// resubmitted to the next replica in rendezvous order — invisible to
// the waiting client, byte-identical in its result.
//
// Usage:
//
//	maprouter -replicas http://127.0.0.1:8081,http://127.0.0.1:8082
//	maprouter -addr :8080 -replicas ... -probe-interval 250ms \
//	          -breaker-threshold 3 -breaker-cooldown 2s
//
// Example session (mapd's job routes; any other route gets a JSON 404
// or 405):
//
//	curl -s localhost:8080/v1/jobs -d '{
//	  "graph": {"network": "p2p-Gnutella", "scale": 0.05},
//	  "topology": "grid:8x8", "num_hierarchies": 10, "seed": 42}'
//	curl -s localhost:8080/v1/jobs/fl-000001?wait=1
//	curl -s localhost:8080/v1/stats
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/fleet"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		replicas  = flag.String("replicas", "", "comma-separated mapd base URLs (required)")
		probeIvl  = flag.Duration("probe-interval", 500*time.Millisecond, "readiness probe period per replica")
		probeTo   = flag.Duration("probe-timeout", 2*time.Second, "deadline of one readiness probe")
		brkThresh = flag.Int("breaker-threshold", 3, "consecutive failures that open a replica's circuit breaker")
		brkCool   = flag.Duration("breaker-cooldown", 2*time.Second, "open-breaker cooldown before a half-open trial")
		upTimeout = flag.Duration("upstream-timeout", 60*time.Second, "deadline of one upstream request attempt")
		retain    = flag.Int("retain-jobs", 0, "routed-job records kept before the oldest finished ones are forgotten (0 = default 4096)")
	)
	flag.Parse()
	if *replicas == "" {
		log.Fatal("maprouter: -replicas is required (comma-separated mapd base URLs)")
	}
	var urls []string
	for _, u := range strings.Split(*replicas, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, strings.TrimRight(u, "/"))
		}
	}

	rt, err := fleet.NewRouter(fleet.Config{
		Replicas:         urls,
		ProbeInterval:    *probeIvl,
		ProbeTimeout:     *probeTo,
		BreakerThreshold: *brkThresh,
		BreakerCooldown:  *brkCool,
		UpstreamTimeout:  *upTimeout,
		RetainJobs:       *retain,
	})
	if err != nil {
		log.Fatal(fmt.Errorf("maprouter: %w", err))
	}
	defer rt.Close()

	srv := &http.Server{
		Addr:              *addr,
		Handler:           rt.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() {
		log.Printf("maprouter: listening on %s, routing over %d replicas", *addr, len(urls))
		errCh <- srv.ListenAndServe()
	}()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(fmt.Errorf("maprouter: %w", err))
		}
	case sig := <-sigCh:
		log.Printf("maprouter: %s: shutting down", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("maprouter: http shutdown: %v", err)
		}
		cancel()
	}
}
