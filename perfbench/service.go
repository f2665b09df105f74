package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/fleet"
	"repro/internal/mapclient"
	"repro/internal/mapdsrv"
)

// listener is one HTTP server on a loopback port inside the benchmark
// process; close stops it and waits for its Serve loop to return.
type listener struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	l := &listener{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		l.srv.Serve(ln)
	}()
	return l, nil
}

func (l *listener) close() {
	l.srv.Close()
	<-l.done
}

// replica is one single-worker mapd: mapdsrv.New around a durable
// engine with its own job ledger directory.
type replica struct {
	eng *engine.Engine
	ln  *listener
	dir string
}

// service is the fleet the service workload drives: mapclient →
// maprouter (fleet.Router.Handler) → mapd replicas, all on loopback
// listeners in this process.
type service struct {
	replicas []*replica
	rt       *fleet.Router
	front    *listener
	client   *mapclient.Client
}

// startService stands up n replicas and a router in front of them,
// and returns once the router has a usable replica. Each replica keeps
// its ledger in a fresh directory under workdir. With a recorder, the
// router and every replica handler are wrapped in span-recording
// handlers.
func startService(ctx context.Context, workdir string, n int, rec *recorder) (*service, error) {
	s := &service{}
	var urls []string
	for i := 0; i < n; i++ {
		dir, err := os.MkdirTemp(workdir, "mapd-ledger-")
		if err != nil {
			s.close()
			return nil, fmt.Errorf("replica ledger dir: %w", err)
		}
		eng := engine.New(engine.Options{Workers: 1, JobDir: dir})
		ln, err := listen(rec.wrap("mapdsrv", mapdsrv.New(eng, mapdsrv.Config{})))
		if err != nil {
			eng.Close()
			os.RemoveAll(dir)
			s.close()
			return nil, err
		}
		s.replicas = append(s.replicas, &replica{eng: eng, ln: ln, dir: dir})
		urls = append(urls, ln.url)
	}
	rt, err := fleet.NewRouter(fleet.Config{Replicas: urls})
	if err != nil {
		s.close()
		return nil, err
	}
	s.rt = rt
	if s.front, err = listen(rec.wrap("fleet", rt.Handler())); err != nil {
		s.close()
		return nil, err
	}
	s.client = mapclient.New(s.front.url, mapclient.Config{})
	if err := s.awaitReady(ctx); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// awaitReady polls the router's /healthz until its first probes have
// found every replica usable. The router probes at once on start, so
// this waits for those events, not a fixed delay. Starting on fewer
// replicas would place early jobs away from their rendezvous home, and
// their resubmissions, routed home, would find no ledger entry.
func (s *service) awaitReady(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	for {
		var h struct {
			Usable int `json:"usable"`
		}
		if err := getJSON(ctx, s.front.url+"/healthz", &h); err == nil && h.Usable == len(s.replicas) {
			return nil
		}
		if ctx.Err() != nil {
			return fmt.Errorf("router never found all %d replicas usable: %w", len(s.replicas), ctx.Err())
		}
	}
}

func (s *service) run(ctx context.Context, spec engine.JobSpec, seq int, rec *recorder) (engine.Job, error) {
	t0 := rec.now()
	job, err := s.client.SubmitJob(ctx, spec)
	rec.add("mapclient POST", t0, seq)
	if err != nil || terminal(job) {
		return job, err
	}
	t1 := rec.now()
	job, err = s.client.WaitJob(ctx, job.ID)
	rec.add("mapclient GET", t1, seq)
	return job, err
}

func (s *service) resubmit(ctx context.Context, spec engine.JobSpec, seq int, rec *recorder) (engine.Job, bool, error) {
	t0 := rec.now()
	job, err := s.client.SubmitJob(ctx, spec)
	rec.add("mapclient POST", t0, seq)
	return job, true, err
}

func (s *service) engines() []*engine.Engine {
	out := make([]*engine.Engine, len(s.replicas))
	for i, r := range s.replicas {
		out[i] = r.eng
	}
	return out
}

func (s *service) faults(ctx context.Context) (retries, failovers, shed int64, err error) {
	retries, failovers = s.client.Retries(), s.rt.Failovers()
	for _, r := range s.replicas {
		var st struct {
			ShedTotal int64 `json:"shed_total"`
		}
		if err := getJSON(ctx, r.ln.url+"/v1/stats", &st); err != nil {
			return 0, 0, 0, err
		}
		shed += st.ShedTotal
	}
	return retries, failovers, shed, nil
}

func getJSON(ctx context.Context, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// close stops the router's listener and probers, then each replica:
// listener, engine and ledger directory.
func (s *service) close() {
	if s.front != nil {
		s.front.close()
	}
	if s.rt != nil {
		s.rt.Close()
	}
	for _, r := range s.replicas {
		r.ln.close()
		if err := r.eng.DrainAndClose(time.Minute); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: replica drain:", err)
		}
		os.RemoveAll(r.dir)
	}
	http.DefaultClient.CloseIdleConnections()
}

// checkLedgerServe fails unless a resubmission was answered done from
// the ledger, as the service workload requires.
func checkLedgerServe(j engine.Job) error {
	if j.Status != engine.StatusDone || j.Result == nil {
		return fmt.Errorf("resubmission %s came back %s, not done", j.ID, j.Status)
	}
	if !j.Result.ServedFromLedger {
		return fmt.Errorf("resubmission %s was recomputed, not served from the ledger", j.ID)
	}
	return nil
}

// jobPath reports whether a request is part of the job API, the only
// requests the span wrappers attribute to jobs (health probes are not).
func jobPath(r *http.Request) bool { return strings.HasPrefix(r.URL.Path, "/v1/jobs") }
