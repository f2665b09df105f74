package fleet_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/fleet"
	"repro/internal/mapclient"
	"repro/internal/mapdsrv"
	"repro/internal/netgen"
)

// testReplica is an in-process mapd: a real engine behind the real
// mapdsrv handler on a real TCP listener, killable and restartable at
// the same address.
type testReplica struct {
	t    *testing.T
	addr string
	srv  *http.Server
	eng  *engine.Engine
}

func startReplicaAt(t *testing.T, addr string, opts engine.Options) *testReplica {
	t.Helper()
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	var ln net.Listener
	var err error
	for i := 0; i < 50; i++ { // rebinding a just-closed address can race
		if ln, err = net.Listen("tcp", addr); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("listen %s: %v", addr, err)
	}
	eng := engine.New(opts)
	srv := &http.Server{Handler: mapdsrv.New(eng, mapdsrv.Config{})}
	go srv.Serve(ln)
	r := &testReplica{t: t, addr: ln.Addr().String(), srv: srv, eng: eng}
	t.Cleanup(func() {
		srv.Close()
		eng.Close()
	})
	return r
}

func (r *testReplica) url() string { return "http://" + r.addr }

// kill closes the listener and every open connection — the in-process
// approximation of kill -9: waiters see resets, new dials are refused.
// The engine object stays alive so cleanup stays simple.
func (r *testReplica) kill() { r.srv.Close() }

func fastRouter(t *testing.T, replicaURLs []string) (*fleet.Router, *httptest.Server) {
	t.Helper()
	rt, err := fleet.NewRouter(fleet.Config{
		Replicas:         replicaURLs,
		ProbeInterval:    30 * time.Millisecond,
		ProbeTimeout:     500 * time.Millisecond,
		BreakerThreshold: 3,
		BreakerCooldown:  300 * time.Millisecond,
		UpstreamTimeout:  10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		srv.Close()
		rt.Close()
	})
	return rt, srv
}

// homeReplica resolves the replica rendezvous ranks first for key —
// the one holding a job with that routing key while the fleet is
// healthy.
func homeReplica(rt *fleet.Router, key string) *fleet.Replica {
	url := rt.HomeOfForTest(key)
	for _, rep := range rt.ReplicasForTest() {
		if rep.Name == url {
			return rep
		}
	}
	return nil
}

// waitUsable polls the router until n replicas are probed ready.
func waitUsable(t *testing.T, rt *fleet.Router, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for rt.UsableCountForTest() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d replicas became usable", rt.UsableCountForTest(), n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func testSpec(seed int64) engine.JobSpec {
	return engine.JobSpec{
		Graph:          engine.GraphSpec{Network: "p2p-Gnutella", Scale: 0.05, Seed: 11},
		Topology:       "grid:4x4",
		Seed:           seed,
		NumHierarchies: 4,
	}
}

func TestRouterRoutesJobsToCompletion(t *testing.T) {
	var urls []string
	for i := 0; i < 3; i++ {
		urls = append(urls, startReplicaAt(t, "", engine.Options{Workers: 2}).url())
	}
	rt, srv := fastRouter(t, urls)
	waitUsable(t, rt, 3)

	c := mapclient.New(srv.URL, mapclient.Config{AttemptTimeout: 15 * time.Second})
	ctx := context.Background()
	var ids []string
	for seed := int64(1); seed <= 6; seed++ {
		job, err := c.SubmitJob(ctx, testSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		if job.ID == "" || job.ID[:3] != "fl-" {
			t.Fatalf("router returned ID %q, want fl- namespace", job.ID)
		}
		ids = append(ids, job.ID)
	}
	for _, id := range ids {
		job, err := c.WaitJob(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if job.Status != engine.StatusDone {
			t.Fatalf("job %s: %s (%s)", id, job.Status, job.Error)
		}
		if job.ID != id {
			t.Errorf("wait returned ID %q, want the router ID %q", job.ID, id)
		}
	}

	// Routing affinity: resubmitting a spec must land on the replica
	// that already computed it. With 3 replicas and 6 seeds, at least
	// one replica served ≥ 2 submits; resubmitting seed 1 adds exactly
	// one submit to whichever replica owned it before.
	var before []int64
	for _, rep := range rt.ReplicasForTest() {
		before = append(before, rep.SubmitsForTest())
	}
	if _, err := c.SubmitJob(ctx, testSpec(1)); err != nil {
		t.Fatal(err)
	}
	changed := -1
	for i, rep := range rt.ReplicasForTest() {
		if d := rep.SubmitsForTest() - before[i]; d == 1 && changed == -1 {
			changed = i
		} else if d != 0 && (d != 1 || changed != -1) {
			t.Fatalf("resubmission spread across replicas")
		}
	}
	if changed == -1 {
		t.Fatal("resubmission reached no replica")
	}
	if before[changed] == 0 {
		t.Error("resubmitted spec landed on a replica that had never seen it")
	}
}

// TestRouterBatchesRoute drives POST /v1/batches — the batch route mapd
// serves and the README documents — over HTTP and waits for every
// returned job to finish. It also checks that the router, like mapd,
// answers fields outside the spec schema (here the retired
// timer_workers) with 400 on both submit routes.
func TestRouterBatchesRoute(t *testing.T) {
	urls := []string{
		startReplicaAt(t, "", engine.Options{Workers: 2}).url(),
		startReplicaAt(t, "", engine.Options{Workers: 2}).url(),
	}
	rt, srv := fastRouter(t, urls)
	waitUsable(t, rt, 2)

	post := func(path, body string) *http.Response {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	batch, err := json.Marshal(engine.BatchSpec{
		Graphs:         []engine.GraphSpec{{Network: "p2p-Gnutella", Scale: 0.05, Seed: 11}},
		Topologies:     []string{"grid:4x4", "hypercube:4"},
		Reps:           2,
		NumHierarchies: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp := post("/v1/batches", string(batch))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/batches: status %d", resp.StatusCode)
	}
	var out struct {
		JobIDs []string `json:"job_ids"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.JobIDs) != 4 {
		t.Fatalf("batch returned %d jobs, want 4", len(out.JobIDs))
	}
	c := mapclient.New(srv.URL, mapclient.Config{AttemptTimeout: 15 * time.Second})
	for _, id := range out.JobIDs {
		job, err := c.WaitJob(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if job.Status != engine.StatusDone {
			t.Fatalf("batch job %s: %s (%s)", id, job.Status, job.Error)
		}
	}

	for path, body := range map[string]string{
		"/v1/jobs":    `{"graph": {"network": "p2p-Gnutella", "scale": 0.05}, "topology": "grid:4x4", "timer_workers": 4}`,
		"/v1/batches": `{"graphs": [{"network": "p2p-Gnutella", "scale": 0.05}], "topologies": ["grid:4x4"], "timer_workers": 4}`,
	} {
		if code := post(path, body).StatusCode; code != http.StatusBadRequest {
			t.Errorf("POST %s with timer_workers: status %d, want 400", path, code)
		}
	}
}

func TestRouterFailsOverWhenReplicaDies(t *testing.T) {
	// Heavy enough (full-scale graph, long enhancement tail) that the
	// job is guaranteed to still be in flight when the kill lands —
	// without the race detector's slowdown a scale-0.05 job can finish
	// inside the kill delay and no failover would ever be needed.
	spec := testSpec(7)
	spec.Graph.Scale = 0.25
	spec.NumHierarchies = 120
	// The same graph as an inline edge list: failover resubmits the
	// request bytes the router kept, which then carry every edge.
	inline := spec
	inline.Graph = inlineGraph(t, spec.Graph)
	for _, tc := range []struct {
		name string
		spec engine.JobSpec
	}{{"network", spec}, {"inline-edges", inline}} {
		t.Run(tc.name, func(t *testing.T) { failOverWhenReplicaDies(t, tc.spec) })
	}
}

// inlineGraph generates a catalog network spec's graph and returns it
// as an inline edge list, each undirected edge once.
func inlineGraph(t *testing.T, gs engine.GraphSpec) engine.GraphSpec {
	t.Helper()
	ns, err := netgen.ByName(gs.Network)
	if err != nil {
		t.Fatal(err)
	}
	g := ns.Generate(gs.Scale, gs.Seed)
	var edges engine.EdgeList
	for u := 0; u < g.N(); u++ {
		nbrs, ws := g.Neighbors(u)
		for k, v := range nbrs {
			if int(v) > u {
				edges = append(edges, [3]int64{int64(u), int64(v), ws[k]})
			}
		}
	}
	return engine.GraphSpec{N: g.N(), Edges: edges}
}

// failOverWhenReplicaDies kills the replica holding a job mid-flight
// and requires the job, moved by the router, to finish with the result
// Engine.Run computes.
func failOverWhenReplicaDies(t *testing.T, spec engine.JobSpec) {
	replicas := make([]*testReplica, 3)
	var urls []string
	for i := range replicas {
		replicas[i] = startReplicaAt(t, "", engine.Options{Workers: 2})
		urls = append(urls, replicas[i].url())
	}
	rt, srv := fastRouter(t, urls)
	waitUsable(t, rt, 3)

	// Find the spec's home replica so the kill is guaranteed to hit
	// the placement.
	key, ok := engine.SpecHash(spec)
	if !ok {
		t.Fatal("spec has no hash")
	}
	home := homeReplica(rt, key)
	var victim *testReplica
	for _, r := range replicas {
		if r.url() == home.Name {
			victim = r
		}
	}

	c := mapclient.New(srv.URL, mapclient.Config{AttemptTimeout: 15 * time.Second})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	job, err := c.SubmitJob(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan engine.Job, 1)
	errCh := make(chan error, 1)
	go func() {
		j, err := c.WaitJob(ctx, job.ID)
		if err != nil {
			errCh <- err
			return
		}
		done <- j
	}()

	// Kill the moment the victim has accepted the placement.
	deadline := time.Now().Add(15 * time.Second)
	for home.SubmitsForTest() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("home replica never received the placement")
		}
		time.Sleep(2 * time.Millisecond)
	}
	victim.kill()

	var got engine.Job
	select {
	case got = <-done:
	case err := <-errCh:
		t.Fatalf("wait through failover errored: %v", err)
	}
	if got.Status != engine.StatusDone {
		t.Fatalf("failed-over job: %s (%s)", got.Status, got.Error)
	}
	if n := rt.Failovers(); n < 1 {
		t.Errorf("router recorded %d failovers, want ≥ 1", n)
	}

	// Byte-identical to an uninterrupted single-engine reference.
	ref := engine.New(engine.Options{Workers: 2})
	defer ref.Close()
	want, err := ref.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := got.Result.StripPerf(), want.StripPerf(); !reflect.DeepEqual(a, b) {
		t.Errorf("failover result diverged from reference:\n%+v\nvs\n%+v", a, b)
	}
}

// TestRouterServesFinalJobsAfterReplicaDeath: once the router has
// relayed a job as done, it keeps that snapshot and answers every later
// read of the job from it. The replica that ran the job can then die
// without the job being placed again: plain and ?wait=1 reads return
// the same bytes as before the kill, and the failover and requeue
// counters stay put. This holds for a job relayed by a wait and for a
// resubmission whose placement the replica's ledger answered done.
func TestRouterServesFinalJobsAfterReplicaDeath(t *testing.T) {
	replicas := make([]*testReplica, 2)
	var urls []string
	for i := range replicas {
		replicas[i] = startReplicaAt(t, "", engine.Options{Workers: 1, JobDir: t.TempDir()})
		urls = append(urls, replicas[i].url())
	}
	rt, srv := fastRouter(t, urls)
	waitUsable(t, rt, 2)

	spec := testSpec(5)
	c := mapclient.New(srv.URL, mapclient.Config{AttemptTimeout: 15 * time.Second})
	ctx := context.Background()
	first, err := c.SubmitJob(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if done, err := c.WaitJob(ctx, first.ID); err != nil || done.Status != engine.StatusDone {
		t.Fatalf("job %s: %v / %s (%s)", first.ID, err, done.Status, done.Error)
	}
	again, err := c.SubmitJob(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if again.Status != engine.StatusDone || again.Result == nil || !again.Result.ServedFromLedger {
		t.Fatalf("resubmission: status %s, want done and served from the ledger", again.Status)
	}

	get := func(path string) string {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Error(err)
			return ""
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d %s (%v)", path, resp.StatusCode, body, err)
		}
		return string(body)
	}
	paths := []string{
		"/v1/jobs/" + first.ID, "/v1/jobs/" + first.ID + "?wait=1",
		"/v1/jobs/" + again.ID, "/v1/jobs/" + again.ID + "?wait=1",
	}
	before := make(map[string]string)
	for _, p := range paths {
		before[p] = get(p)
	}
	failovers, requeues := rt.Failovers(), rt.RequeuesForTest()

	key, ok := engine.SpecHash(spec)
	if !ok {
		t.Fatal("spec has no hash")
	}
	for _, r := range replicas {
		if r.url() == rt.HomeOfForTest(key) {
			r.kill()
		}
	}
	// Several readers of each path at once, as concurrent waiters of a
	// job would be.
	var wg sync.WaitGroup
	for _, p := range paths {
		for range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got := get(p); got != before[p] {
					t.Errorf("GET %s after the kill:\n%s\nwant the snapshot relayed before it:\n%s", p, got, before[p])
				}
			}()
		}
	}
	wg.Wait()
	if f, q := rt.Failovers(), rt.RequeuesForTest(); f != failovers || q != requeues {
		t.Errorf("reading final jobs moved them: failovers %d -> %d, requeues %d -> %d", failovers, f, requeues, q)
	}
}

// TestRouterForwardsRequestBytes: the router hands the replica the
// client's request body byte for byte (whitespace and key order
// included), not a re-encoding of the spec it decoded.
func TestRouterForwardsRequestBytes(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 1})
	h := mapdsrv.New(eng, mapdsrv.Config{})
	var mu sync.Mutex
	var received []string
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				t.Errorf("replica reading body: %v", err)
			}
			mu.Lock()
			received = append(received, string(body))
			mu.Unlock()
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		replica.Close()
		eng.Close()
	})
	rt, srv := fastRouter(t, []string{replica.URL})
	waitUsable(t, rt, 1)

	const body = "{ \"topology\":\"grid:2x2\" ,\n\t\"num_hierarchies\": 2,\n  \"graph\": { \"edges\": [ [0, 1,1],[1,2, 1], [2,3,1] ,[3,4,1],[4,5,1],[5, 0, 1] ], \"n\": 6 } }\n"
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var job engine.Job
	err = json.NewDecoder(resp.Body).Decode(&job)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: status %d, %v", resp.StatusCode, err)
	}
	mu.Lock()
	got := append([]string(nil), received...)
	mu.Unlock()
	if len(got) != 1 || got[0] != body {
		t.Errorf("replica received %q, want the client's bytes %q", got, body)
	}
	c := mapclient.New(srv.URL, mapclient.Config{AttemptTimeout: 15 * time.Second})
	if done, err := c.WaitJob(context.Background(), job.ID); err != nil || done.Status != engine.StatusDone {
		t.Fatalf("forwarded job: %v / %s (%s)", err, done.Status, done.Error)
	}
}

// TestOversizedJobBodyRejected: a job body one byte over the 64 MiB
// default limit gets 400 "request body too large" from mapd and from
// the router alike; the router used to cut it silently and report the
// truncated JSON instead.
func TestOversizedJobBodyRejected(t *testing.T) {
	if testing.Short() {
		t.Skip("posts a 64 MiB body twice")
	}
	rep := startReplicaAt(t, "", engine.Options{Workers: 1})
	_, srv := fastRouter(t, []string{rep.url()})
	// A valid spec, padded with whitespace to 64 MiB + 1 bytes.
	body := bytes.Repeat([]byte(" "), 64<<20+1)
	copy(body, `{"graph": {"n": 9, "edges": [[0,1,1]]}, "topology": "grid:2x2"`)
	body[len(body)-1] = '}'
	for _, base := range []string{rep.url(), srv.URL} {
		resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			Error string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusBadRequest || !strings.Contains(out.Error, "request body too large") {
			t.Errorf("%s: status %d, error %q (%v); want 400 request body too large", base, resp.StatusCode, out.Error, err)
		}
	}
}

func TestRouterBreakerOpensAndRecloses(t *testing.T) {
	stable := startReplicaAt(t, "", engine.Options{Workers: 2})
	flaky := startReplicaAt(t, "", engine.Options{Workers: 2})
	rt, srv := fastRouter(t, []string{stable.url(), flaky.url()})
	waitUsable(t, rt, 2)

	flaky.kill()
	flakyRep := rt.ReplicasForTest()[1]
	deadline := time.Now().Add(10 * time.Second)
	for {
		if state, _, _ := flakyRep.BreakerForTest(); state == "open" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("breaker never opened on a dead replica")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The fleet still serves with zero client-visible errors.
	c := mapclient.New(srv.URL, mapclient.Config{AttemptTimeout: 15 * time.Second})
	job, err := c.SubmitJob(context.Background(), testSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	if j, err := c.WaitJob(context.Background(), job.ID); err != nil || j.Status != engine.StatusDone {
		t.Fatalf("job during outage: %v / %+v", err, j.Status)
	}

	// Replica restarts at the same address: the health probe is the
	// half-open trial, and its first success recloses the breaker.
	startReplicaAt(t, flaky.addr, engine.Options{Workers: 2})
	deadline = time.Now().Add(10 * time.Second)
	for {
		state, _, _ := flakyRep.BreakerForTest()
		if state == "closed" && flakyRep.ReadyForTest() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker stuck %s after replica restart", state)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestRouterSheds503WithNoUsableReplica(t *testing.T) {
	lone := startReplicaAt(t, "", engine.Options{Workers: 1})
	rt, srv := fastRouter(t, []string{lone.url()})
	waitUsable(t, rt, 1)
	lone.kill()

	deadline := time.Now().Add(5 * time.Second)
	for rt.UsableCountForTest() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("dead replica still counted usable")
		}
		time.Sleep(10 * time.Millisecond)
	}

	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz with dead fleet: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("/readyz 503 missing Retry-After")
	}
}

// TestRouterBatchPartialFailureKeepsRetryAfter: when a batch's second
// placement is shed with 429 + Retry-After, the router answers the
// batch as it answers a single job, status and Retry-After included,
// and still hands back the ID of the job it placed.
func TestRouterBatchPartialFailureKeepsRetryAfter(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 1})
	h := mapdsrv.New(eng, mapdsrv.Config{})
	var mu sync.Mutex
	posts := 0
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
			mu.Lock()
			posts++
			shed := posts > 1
			mu.Unlock()
			if shed {
				w.Header().Set("Retry-After", "1")
				w.WriteHeader(http.StatusTooManyRequests)
				io.WriteString(w, `{"error": "over quota"}`)
				return
			}
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		replica.Close()
		eng.Close()
	})
	rt, srv := fastRouter(t, []string{replica.URL})
	waitUsable(t, rt, 1)

	batch, err := json.Marshal(engine.BatchSpec{
		Graphs:         []engine.GraphSpec{{Network: "p2p-Gnutella", Scale: 0.05, Seed: 11}},
		Topologies:     []string{"grid:4x4"},
		Reps:           2,
		NumHierarchies: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/batches", "application/json", bytes.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		JobIDs []string `json:"job_ids"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("status %d, want 429", resp.StatusCode)
	}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || secs < 1 {
		t.Errorf("Retry-After %q, want >= 1 second", resp.Header.Get("Retry-After"))
	}
	if len(out.JobIDs) != 1 {
		t.Errorf("job_ids %q, want the one placed job", out.JobIDs)
	}
}

// TestRouterRefusesBatchBeyondRetention: the router forgets all but
// its newest RetainJobs job IDs, so it refuses a larger batch with 400
// before placing any of its jobs, including a batch whose job count
// wraps an int64 (4 graphs × 2^62 reps). The replica accepts every job
// at once, so only the router's own check can refuse.
func TestRouterRefusesBatchBeyondRetention(t *testing.T) {
	var mu sync.Mutex
	posts := 0
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
			mu.Lock()
			posts++
			id := fmt.Sprintf("job-%06d", posts)
			mu.Unlock()
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprintf(w, `{"id": %q, "status": "queued"}`, id)
			return
		}
		io.WriteString(w, `{}`) // /readyz and /healthz: ready
	}))
	t.Cleanup(replica.Close)
	rt, err := fleet.NewRouter(fleet.Config{
		Replicas:      []string{replica.URL},
		ProbeInterval: 30 * time.Millisecond,
		RetainJobs:    4,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		srv.Close()
		rt.Close()
	})
	waitUsable(t, rt, 1)

	gs := engine.GraphSpec{Network: "p2p-Gnutella", Scale: 0.05, Seed: 11}
	for name, batch := range map[string]engine.BatchSpec{
		"retain+1":         {Graphs: []engine.GraphSpec{gs}, Topologies: []string{"grid:4x4"}, Reps: 5},
		"wrapping product": {Graphs: []engine.GraphSpec{gs, gs, gs, gs}, Topologies: []string{"grid:4x4"}, Reps: 1 << 62},
	} {
		body, err := json.Marshal(batch)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+"/v1/batches", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "retention window of 4 jobs") {
			t.Errorf("%s: status %d %s, want 400 naming the retention window", name, resp.StatusCode, msg)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if posts != 0 {
		t.Errorf("the router placed %d jobs of refused batches", posts)
	}
}

// retainingRouter serves a router with the given RetainJobs over one
// stub replica that accepts every job as running under job-NNNNNN and
// answers each later read of job N with status(N). It returns the
// router's URL.
func retainingRouter(t *testing.T, retain int, status func(n int) string) string {
	t.Helper()
	var posts atomic.Int64
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprintf(w, `{"id": "job-%06d", "status": "running"}`, posts.Add(1))
		case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/"):
			id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
			n, _ := strconv.Atoi(strings.TrimPrefix(id, "job-"))
			fmt.Fprintf(w, `{"id": %q, "status": %q}`, id, status(n))
		default:
			io.WriteString(w, `{}`) // /readyz and /healthz: ready
		}
	}))
	t.Cleanup(replica.Close)
	rt, err := fleet.NewRouter(fleet.Config{
		Replicas:      []string{replica.URL},
		ProbeInterval: 30 * time.Millisecond,
		RetainJobs:    retain,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		srv.Close()
		rt.Close()
	})
	waitUsable(t, rt, 1)
	return srv.URL
}

// submitUnread posts a job to the router and reads only its status.
func submitUnread(t *testing.T, url string, seed int64) {
	t.Helper()
	body, err := json.Marshal(testSpec(seed))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
}

// expectStatus reads job id through the router and requires status want.
func expectStatus(t *testing.T, url, id string, want int) {
	t.Helper()
	resp, err := http.Get(url + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != want {
		t.Errorf("GET %s: status %d %s, want %d", id, resp.StatusCode, msg, want)
	}
}

// routedJobs reads the size of the router's job table from /v1/stats.
func routedJobs(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		RoutedJobs int `json:"routed_jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st.RoutedJobs
}

// TestRouterKeepsLiveJobsPastRetention: past RetainJobs the router
// forgets a job only once its replica reports it finished, so a job
// the replica still runs stays reachable however many jobs follow it.
func TestRouterKeepsLiveJobsPastRetention(t *testing.T) {
	var done atomic.Bool
	url := retainingRouter(t, 2, func(int) string {
		if done.Load() {
			return "done"
		}
		return "running"
	})
	for seed := int64(1); seed <= 3; seed++ {
		submitUnread(t, url, seed)
	}
	for _, id := range []string{"fl-000001", "fl-000002", "fl-000003"} {
		expectStatus(t, url, id, http.StatusOK)
	}
	if n := routedJobs(t, url); n != 3 {
		t.Errorf("routed_jobs %d with three running jobs, want 3", n)
	}

	// Once the replica reports them done, the next submission forgets
	// the oldest two, and the table is back at the bound.
	done.Store(true)
	submitUnread(t, url, 4)
	if n := routedJobs(t, url); n != 2 {
		t.Errorf("routed_jobs %d once the jobs finished, want 2", n)
	}
	expectStatus(t, url, "fl-000001", http.StatusNotFound)
	expectStatus(t, url, "fl-000004", http.StatusOK)
}

// TestRouterForgetsUnreadJobsPastRetention: jobs that finish without a
// client ever reading them through the router do not grow its table
// past RetainJobs.
func TestRouterForgetsUnreadJobsPastRetention(t *testing.T) {
	url := retainingRouter(t, 2, func(int) string { return "done" })
	for seed := int64(1); seed <= 8; seed++ {
		submitUnread(t, url, seed)
		if n := routedJobs(t, url); n > 2 {
			t.Fatalf("routed_jobs %d after %d unread submissions, want at most 2", n, seed)
		}
	}
	expectStatus(t, url, "fl-000001", http.StatusNotFound)
	for _, id := range []string{"fl-000007", "fl-000008"} {
		expectStatus(t, url, id, http.StatusOK)
	}
}

func TestRouterBatchScatterMatchesSingleEngine(t *testing.T) {
	var urls []string
	for i := 0; i < 3; i++ {
		urls = append(urls, startReplicaAt(t, "", engine.Options{Workers: 2}).url())
	}
	rt, srv := fastRouter(t, urls)
	waitUsable(t, rt, 3)

	batch := engine.BatchSpec{
		Graphs:         []engine.GraphSpec{{Network: "p2p-Gnutella", Scale: 0.05}},
		Topologies:     []string{"grid:4x4", "hypercube:4"},
		Reps:           2,
		Seed:           9,
		NumHierarchies: 3,
	}
	c := mapclient.New(srv.URL, mapclient.Config{AttemptTimeout: 15 * time.Second})
	jobs, err := c.RunBatch(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}

	ref := engine.New(engine.Options{Workers: 2})
	defer ref.Close()
	want, err := ref.RunBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != len(want) {
		t.Fatalf("scattered batch has %d jobs, reference %d", len(jobs), len(want))
	}
	for i := range jobs {
		if jobs[i].Status != engine.StatusDone {
			t.Fatalf("job %d: %s (%s)", i, jobs[i].Status, jobs[i].Error)
		}
		if a, b := jobs[i].Result.StripPerf(), want[i].Result.StripPerf(); !reflect.DeepEqual(a, b) {
			t.Errorf("job %d diverged from single-engine reference", i)
		}
	}

	// The scatter placed each spec on its rendezvous home: every replica
	// took exactly the specs homed there. Replica ports are random, so
	// the homes vary from run to run; the counts must match them anyway.
	specs, err := engine.ExpandBatch(batch, len(want))
	if err != nil {
		t.Fatal(err)
	}
	homed := make(map[string]int64)
	for _, spec := range specs {
		key, ok := engine.SpecHash(spec)
		if !ok {
			t.Fatalf("batch spec has no hash: %+v", spec)
		}
		homed[rt.HomeOfForTest(key)]++
	}
	for _, rep := range rt.ReplicasForTest() {
		if got := rep.SubmitsForTest(); got != homed[rep.Name] {
			t.Errorf("replica %s took %d submissions, want the %d specs homed there", rep.Name, got, homed[rep.Name])
		}
	}
}
